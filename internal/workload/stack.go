// Package workload assembles complete DataLinks deployments (host database
// + DLFM-managed file servers) and drives them with configurable
// multi-client workloads, collecting the metrics the paper reports:
// throughput (link inserts and updates per minute), deadlocks, timeouts,
// retries, and latency (Abstract, Section 3.2.1; experiments E1-E2).
package workload

import (
	"errors"
	"fmt"
	"io"
	"net"
	"path/filepath"
	"reflect"
	"sort"
	"sync"

	"repro/internal/archive"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fsim"
	"repro/internal/hostdb"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/paxoscommit"
	"repro/internal/repl"
	"repro/internal/rpc"
)

// Stack is one deployment: a host database and one or more DLFMs, each
// with its file server and archive server, wired over in-process pipes
// (the same frames as TCP without the socket overhead, keeping
// benchmarks about the system rather than the kernel).
type Stack struct {
	Host  *hostdb.DB
	DLFMs map[string]*core.Server
	FS    map[string]*fsim.Server
	Arch  map[string]*archive.Server
	// Standbys holds each server's hot standby when StackConfig.Standbys
	// is set: a fenced DLFM kept current by log-shipping replication,
	// already registered with the host for failover.
	Standbys map[string]*repl.Standby
	// Tracer is the shared tracer: the host and every DLFM record into
	// it, so one chronological timeline covers a transaction end to end.
	Tracer *obs.Tracer
	// Flight is the shared deadlock/timeout flight recorder: every lock
	// manager in the deployment records its victims here, so one
	// /debug/waitgraph covers the whole stack.
	Flight *obs.FlightRecorder
	// ClusterName is the logical namespace when StackConfig.Cluster is set:
	// every DLFM joined one placement map and DATALINK URLs name the
	// cluster instead of a physical server. Empty otherwise.
	ClusterName string
	// Acceptors holds the Paxos Commit acceptor set when
	// StackConfig.PaxosAcceptors is set, keyed "acc1".."accN". Each serves
	// its own endpoint; the host and every DLFM learner reach them through
	// the same chaos-endpoint dials as the DLFMs.
	Acceptors map[string]*paxoscommit.Acceptor

	eps    map[string]*chaosEndpoint
	sbEps  map[string]*chaosEndpoint
	accEps map[string]*chaosEndpoint
}

// ErrServerDown is the dial error while a DLFM is killed; host sessions see
// it as a transport failure and roll the transaction back.
var ErrServerDown = errors.New("workload: DLFM is down")

// chaosEndpoint stands in for a server's network listener: it accepts
// dials while up, tracks the server side of every live connection, and can
// sever them all at once when the chaos injector kills the server. srv is
// the DLFM behind DLFM endpoints (Kill/Restart need it); acceptor
// endpoints leave it nil and serve through newAgent alone.
type chaosEndpoint struct {
	srv      *core.Server
	newAgent func() rpc.Agent

	mu    sync.Mutex
	down  bool
	conns map[net.Conn]struct{}
	wg    sync.WaitGroup
}

func newChaosEndpoint(srv *core.Server, newAgent func() rpc.Agent) *chaosEndpoint {
	return &chaosEndpoint{srv: srv, newAgent: newAgent, conns: make(map[net.Conn]struct{})}
}

func (e *chaosEndpoint) dial() (io.ReadWriteCloser, error) {
	e.mu.Lock()
	if e.down {
		e.mu.Unlock()
		return nil, ErrServerDown
	}
	hostSide, dlfmSide := net.Pipe()
	e.conns[dlfmSide] = struct{}{}
	e.wg.Add(1)
	e.mu.Unlock()
	agent := e.newAgent()
	go func() {
		defer e.wg.Done()
		rpc.ServeConn(dlfmSide, agent)
		e.mu.Lock()
		delete(e.conns, dlfmSide)
		e.mu.Unlock()
	}()
	return hostSide, nil
}

// halt refuses new dials, severs live connections, and waits for their
// serving goroutines (agents roll back in-flight local transactions).
func (e *chaosEndpoint) halt() {
	e.mu.Lock()
	e.down = true
	for c := range e.conns {
		c.Close()
	}
	e.mu.Unlock()
	e.wg.Wait()
}

// Kill crash-stops the named DLFM: all its connections drop, dials fail
// until Restart, and the server recovers from its log exactly as after a
// process crash. No-op for unknown names.
func (st *Stack) Kill(name string) {
	e := st.eps[name]
	if e == nil {
		return
	}
	e.halt()
	e.srv.Crash()
}

// Restart reopens the named DLFM's endpoint after a Kill.
func (st *Stack) Restart(name string) {
	e := st.eps[name]
	if e == nil {
		return
	}
	e.mu.Lock()
	e.down = false
	e.mu.Unlock()
}

// Dial opens a raw client to the named DLFM's current endpoint; tests use
// it to drive protocol-level scenarios (for instance abandoning a prepared
// transaction). Fails while the server is down.
func (st *Stack) Dial(name string) (*rpc.Client, error) {
	e := st.eps[name]
	if e == nil {
		return nil, fmt.Errorf("workload: unknown server %q", name)
	}
	return rpc.NewClientDialer(e.dial)
}

// Registries returns every obs registry in the deployment (host first,
// each DLFM sorted by name, then each standby — carrying the repl_* lag
// gauges) for /metrics exposition.
func (st *Stack) Registries() []*obs.Registry {
	regs := []*obs.Registry{st.Host.Obs()}
	for _, name := range sortedNames(st.DLFMs) {
		regs = append(regs, st.DLFMs[name].Obs())
	}
	for _, name := range sortedNames(st.DLFMs) {
		// A promoted standby may already be the DLFM of record above.
		if sb := st.Standbys[name]; sb != nil && sb.Server() != st.DLFMs[name] {
			regs = append(regs, sb.Server().Obs())
		}
	}
	return regs
}

// WaitGraph snapshots every lock manager's live lock table and waits-for
// edges, keyed by server ("host" plus each DLFM). Feed it to
// obs.Admin.WaitGraph for /debug/waitgraph.
func (st *Stack) WaitGraph() map[string]lock.Dump {
	g := make(map[string]lock.Dump, len(st.DLFMs)+1)
	g["host"] = st.Host.Engine().LockManager().Dump()
	for _, name := range sortedNames(st.DLFMs) {
		g[name] = st.DLFMs[name].DB().LockManager().Dump()
	}
	return g
}

// Admin builds a fully wired admin surface for the deployment: every
// registry, the shared tracer (spans, slow log, attribution), the merged
// wait-for graph, and the flight recorder.
func (st *Stack) Admin() *obs.Admin {
	return &obs.Admin{
		Registries: st.Registries(),
		Tracer:     st.Tracer,
		LockDump:   func() any { return st.WaitGraph() },
		WaitGraph:  func() any { return st.WaitGraph() },
		WaitEdges:  st.allWaitEdges,
		Flight:     st.Flight,
		Cluster:    func() any { return st.Host.DescribeClusters() },
	}
}

func sortedNames(m map[string]*core.Server) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// StackConfig controls deployment construction.
type StackConfig struct {
	// Servers are the file-server names; one DLFM runs per server.
	Servers []string
	// MutateHost adjusts the host configuration before opening.
	MutateHost func(*hostdb.Config)
	// MutateDLFM adjusts each DLFM configuration before opening. With
	// Standbys set it also shapes each standby's configuration (identity
	// fields are fixed up afterwards).
	MutateDLFM func(name string, cfg *core.Config)
	// Standbys adds a hot standby per DLFM, streaming the primary's log
	// through an always-up LogFeed (the durable shared log device) and
	// registered with the host for automatic failover.
	Standbys bool
	// MutateRepl adjusts each standby's replication configuration.
	MutateRepl func(name string, cfg *repl.Config)
	// PaxosAcceptors adds a Paxos Commit acceptor set of that size (use an
	// odd 2F+1; 3 tolerates one acceptor failure), registered with the
	// host. When the host's CommitProtocol is "paxos", every DLFM also
	// gets an outcome-learner daemon over the same set, so prepared
	// participants resolve themselves when the coordinator goes quiet.
	PaxosAcceptors int
	// DataDir, when set, gives every database (host and each DLFM) a
	// page-backed storage directory under it, so heaps and indexes live in
	// 4 KB pages behind a buffer pool instead of purely in memory.
	DataDir string
	// Cluster joins every server into one logical cluster behind a
	// placement map; workloads then address ClusterName and the host routes
	// each path to its owning member.
	Cluster bool
	// ClusterName names the logical namespace (default "dlfs").
	ClusterName string
	// ClusterSlots sizes the placement ring (default cluster.DefaultSlots).
	ClusterSlots int
}

// NewStack builds and starts a deployment.
func NewStack(cfg StackConfig) (*Stack, error) {
	if len(cfg.Servers) == 0 {
		cfg.Servers = []string{"fs1"}
	}
	// One shared tracer: host and DLFM spans interleave on one clock, so
	// a transaction's full 2PC timeline reads top to bottom. Ring size,
	// slow log, and sampling rate come from the process-wide tracer
	// configuration (dlfmd's flags set it).
	tracer := obs.NewTracerDefault()
	flight := obs.NewFlightRecorder(0)
	hostCfg := hostdb.DefaultConfig("host")
	hostCfg.Tracer = tracer
	hostCfg.DB.Flight = flight
	if cfg.DataDir != "" {
		hostCfg.DB.DataDir = filepath.Join(cfg.DataDir, "host")
		if hostCfg.DB.LogPath == "" {
			hostCfg.DB.LogPath = filepath.Join(hostCfg.DB.DataDir, "db.wal")
		}
	}
	if cfg.MutateHost != nil {
		cfg.MutateHost(&hostCfg)
	}
	host, err := hostdb.Open(hostCfg)
	if err != nil {
		return nil, err
	}
	st := &Stack{
		Host:      host,
		DLFMs:     make(map[string]*core.Server, len(cfg.Servers)),
		FS:        make(map[string]*fsim.Server, len(cfg.Servers)),
		Arch:      make(map[string]*archive.Server, len(cfg.Servers)),
		Standbys:  make(map[string]*repl.Standby),
		Acceptors: make(map[string]*paxoscommit.Acceptor),
		Tracer:    tracer,
		Flight:    flight,
		eps:       make(map[string]*chaosEndpoint, len(cfg.Servers)),
		sbEps:     make(map[string]*chaosEndpoint),
		accEps:    make(map[string]*chaosEndpoint),
	}
	// The acceptor set comes up before the DLFMs so their learner closures
	// can capture it. Acceptor state is durable-simulated (in-memory WAL
	// with the same fsync accounting as a file).
	var accCallers []paxoscommit.Caller
	for i := 0; i < cfg.PaxosAcceptors; i++ {
		accName := fmt.Sprintf("acc%d", i+1)
		acc, err := paxoscommit.NewAcceptor(accName, "")
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("workload: start acceptor %s: %w", accName, err)
		}
		st.Acceptors[accName] = acc
		ep := newChaosEndpoint(nil, acc.NewAgent)
		st.accEps[accName] = ep
		host.RegisterAcceptor(accName, func() (*rpc.Client, error) {
			return rpc.NewClientDialer(ep.dial)
		})
		accCallers = append(accCallers, &lazyAcceptorCaller{ep: ep})
	}
	// DLFM learner daemons are only wired when paxos is actually the
	// commit protocol: under 2PC a learner would presume abort for
	// transactions whose live coordinator simply has not decided yet.
	wireLearners := cfg.PaxosAcceptors > 0 && hostCfg.CommitProtocol == "paxos"
	for i, name := range cfg.Servers {
		fs := fsim.NewServer(name)
		ar := archive.NewServer()
		dlfmCfg := core.DefaultConfig(name)
		// Each DLFM emits into the shared ring under its server-name
		// prefix (component reads "fs1/agent" and so on).
		dlfmCfg.Tracer = tracer.Named(name)
		dlfmCfg.Flight = flight
		if cfg.DataDir != "" {
			dlfmCfg.DB.DataDir = filepath.Join(cfg.DataDir, name)
			if dlfmCfg.DB.LogPath == "" {
				dlfmCfg.DB.LogPath = filepath.Join(dlfmCfg.DB.DataDir, "db.wal")
			}
		}
		if cfg.MutateDLFM != nil {
			cfg.MutateDLFM(name, &dlfmCfg)
		}
		if wireLearners {
			// Learner IDs: host=1, DLFM i = i+2; all share the default
			// ballot stride so no two learners ever collide.
			learner := &paxoscommit.Learner{
				Acceptors: accCallers,
				ID:        int64(i + 2),
				Stride:    paxoscommit.DefaultStride,
			}
			dlfmCfg.OutcomeLearner = learner.Outcome
		}
		dlfm, err := core.New(dlfmCfg, fs, ar)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("workload: start DLFM %s: %w", name, err)
		}
		st.DLFMs[name] = dlfm
		st.FS[name] = fs
		st.Arch[name] = ar
		ep := newChaosEndpoint(dlfm, dlfm.NewAgent)
		st.eps[name] = ep
		host.RegisterDLFM(name, func() (*rpc.Client, error) {
			// The client redials through the endpoint, so a session's
			// connection survives kill/restart cycles of its DLFM.
			return rpc.NewClientDialer(ep.dial)
		})
		if cfg.Standbys {
			if err := st.addStandby(cfg, name, dlfm); err != nil {
				st.Close()
				return nil, fmt.Errorf("workload: start standby for %s: %w", name, err)
			}
		}
	}
	if cfg.Cluster {
		name := cfg.ClusterName
		if name == "" {
			name = "dlfs"
		}
		if _, err := host.NewCluster(name, cfg.ClusterSlots); err != nil {
			st.Close()
			return nil, err
		}
		for _, sn := range cfg.Servers {
			ep := st.eps[sn]
			if _, err := host.AddDLFM(name, sn, func() (*rpc.Client, error) {
				return rpc.NewClientDialer(ep.dial)
			}); err != nil {
				st.Close()
				return nil, fmt.Errorf("workload: join %s to cluster %s: %w", sn, name, err)
			}
		}
		st.ClusterName = name
	}
	return st, nil
}

// lazyAcceptorCaller implements paxoscommit.Caller over a chaos endpoint,
// dialing on first use and re-dialing after a transport error — the DLFM
// learner daemons' connection to the acceptor set.
type lazyAcceptorCaller struct {
	ep *chaosEndpoint

	mu     sync.Mutex
	client *rpc.Client
}

func (c *lazyAcceptorCaller) Call(req any) (rpc.Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.client == nil {
		cl, err := rpc.NewClientDialer(c.ep.dial)
		if err != nil {
			return rpc.Response{}, err
		}
		c.client = cl
	}
	resp, err := c.client.Call(req)
	if err != nil {
		c.client.Close()
		c.client = nil
	}
	return resp, err
}

// CreateTargets lists the file servers a fresh file must be created on
// before linking path under server (a physical name or a cluster): the
// current owner, plus the move target while the path's slot is migrating —
// the link may route to either side of the cutover. The extra copy on the
// losing side is an orphan file without a linked entry, which is harmless.
func (st *Stack) CreateTargets(server, path string) []*fsim.Server {
	var out []*fsim.Server
	for _, owner := range st.Host.ReadOwners(server, path) {
		if fs := st.FS[owner]; fs != nil {
			out = append(out, fs)
		}
	}
	return out
}

// addStandby builds the hot standby for one DLFM: a fenced core server
// sharing the primary's file and archive servers, a replication client
// dialing a LogFeed over the primary's engine (the durable log device,
// which outlives a killed primary), and host-side failover registration.
func (st *Stack) addStandby(cfg StackConfig, name string, primary *core.Server) error {
	sbCfg := core.DefaultConfig(name)
	sbCfg.Tracer = st.Tracer.Named(name + "-sb")
	sbCfg.Flight = st.Flight
	if cfg.MutateDLFM != nil {
		cfg.MutateDLFM(name, &sbCfg)
	}
	// Identity fixups after the mutator: the standby must not share the
	// primary's database name or log file.
	sbCfg.DB.Name += "-sb"
	if sbCfg.DB.LogPath != "" {
		sbCfg.DB.LogPath += "-sb"
	}
	if sbCfg.DB.DataDir != "" {
		sbCfg.DB.DataDir += "-sb"
	}
	sbSrv, err := core.NewStandby(sbCfg, st.FS[name], st.Arch[name])
	if err != nil {
		return err
	}
	feed := &repl.LogFeed{DB: primary.DB()}
	replCfg := repl.Config{}
	if cfg.MutateRepl != nil {
		cfg.MutateRepl(name, &replCfg)
	}
	sb := repl.New(sbSrv, func() (io.ReadWriteCloser, error) {
		feedSide, sbSide := net.Pipe()
		go rpc.ServeConn(feedSide, feed.NewAgent())
		return sbSide, nil
	}, replCfg)
	sb.Start()
	st.Standbys[name] = sb

	sbEp := newChaosEndpoint(sbSrv, sbSrv.NewAgent)
	st.sbEps[name] = sbEp
	st.Host.RegisterStandby(name, func() (*rpc.Client, error) {
		return rpc.NewClientDialer(sbEp.dial)
	}, sb.Promote)
	return nil
}

// KillForever crash-stops the named DLFM for good: connections drop, dials
// fail, daemons stop, and the server never restarts — but its engine (and
// so its log) stays readable, modeling a dead process whose durable log
// device survives. With a standby registered, host traffic fails over.
func (st *Stack) KillForever(name string) {
	e := st.eps[name]
	if e == nil {
		return
	}
	e.halt()
	e.srv.Halt()
}

// Close shuts the deployment down.
func (st *Stack) Close() {
	for _, e := range st.eps {
		e.halt()
	}
	for _, e := range st.sbEps {
		e.halt()
	}
	for _, e := range st.accEps {
		e.halt()
	}
	for _, a := range st.Acceptors {
		a.Close()
	}
	for _, sb := range st.Standbys {
		sb.Stop()
		sb.Server().Close()
	}
	for _, d := range st.DLFMs {
		d.Close()
	}
	if st.Host != nil {
		st.Host.Close()
	}
}

// EngineStats aggregates the DLFM local-database statistics across every
// DLFM in the stack — the counters the paper's lessons are about.
func (st *Stack) EngineStats() engine.Stats {
	var agg engine.Stats
	for _, d := range st.DLFMs {
		addFields(reflect.ValueOf(&agg).Elem(), reflect.ValueOf(d.DB().Stats()))
	}
	return agg
}

// DLFMStats aggregates DLFM-level counters across the stack.
func (st *Stack) DLFMStats() core.Snapshot {
	var agg core.Snapshot
	for _, d := range st.DLFMs {
		addFields(reflect.ValueOf(&agg).Elem(), reflect.ValueOf(d.Stats()))
	}
	return agg
}

// addFields adds every integer field of src into dst, nested structs
// included, so an aggregate sums each counter its members report.
func addFields(dst, src reflect.Value) {
	for i := 0; i < dst.NumField(); i++ {
		switch f := dst.Field(i); f.Kind() {
		case reflect.Struct:
			addFields(f, src.Field(i))
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + src.Field(i).Int())
		}
	}
}
