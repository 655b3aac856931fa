package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/hostdb"
	"repro/internal/value"
	"repro/internal/workload"
)

// scale sizes everything that is a count rather than a duration.
type scale struct {
	preloadDiv int // preload rows are divided by this
	warmup     int // warm-up transactions, all clients together
	setups     int // set-ups timed per run (median reported)
	recoveries int // crash/recover cycles timed on each set-up but the measured one
}

var (
	fullScale  = scale{preloadDiv: 1, warmup: 2000, setups: 3, recoveries: 15}
	quickScale = scale{preloadDiv: 50, warmup: 40, setups: 2, recoveries: 1}
)

// deployment is one built stack with its clients' generators. The
// generators live as long as the stack: preload, warm-up and every pass
// continue one stream, so the mirror always matches the tables.
type deployment struct {
	def     *workloadDef
	st      *workload.Stack
	server  string // server part of every DATALINK URL
	dataDir string
	gens    []*generator
	// sinceCheckpoint counts client 0's commits since the last checkpoint
	// (paged deployments); only client 0 touches it.
	sinceCheckpoint int

	// Traced deployments only.
	rec   *recorder
	tapMu sync.Mutex // guards taps: sessions dial from their own goroutines
	taps  []*tap
}

// createFile puts the file a link will name on the file server(s) that may
// own its path. It happens before the transaction's clock starts: the file
// exists before the application links it.
func (d *deployment) createFile(path string) {
	for _, fs := range d.st.CreateTargets(d.server, path) {
		fs.Create(path, "app", []byte("x")) //nolint:errcheck // paths are unique per generator
	}
}

// setup builds the stack, creates the table, preloads it and warms up.
// traced installs the connection taps (recording off until a traced pass).
func setup(def *workloadDef, seed int64, sc scale, dataRoot string, traced bool) (*deployment, error) {
	d := &deployment{def: def}
	built := false
	defer func() {
		if !built {
			d.close() // stop the daemons and drop the data directory of a failed set-up
		}
	}()
	if def.paged {
		dir, err := os.MkdirTemp(dataRoot, def.name+"-")
		if err != nil {
			return nil, err
		}
		d.dataDir = dir
	}
	st, err := workload.NewStack(def.stackConfig(d.dataDir))
	if err != nil {
		return nil, err
	}
	d.st = st
	d.server = "fs1"
	if def.cluster {
		d.server = st.ClusterName
	}
	if traced {
		d.rec = newRecorder()
		d.installTaps()
	}
	if err := st.Host.CreateTable(
		`CREATE TABLE docs (id BIGINT NOT NULL, owner BIGINT, doc VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc", FullControl: def.fullControl},
	); err != nil {
		return nil, err
	}
	c := st.Host.Engine().Connect()
	if _, err := c.Exec(`CREATE UNIQUE INDEX docs_id ON docs (id)`); err != nil {
		return nil, err
	}
	// Hand-crafted statistics, as the paper prescribes, so the host plans
	// index lookups from the first statement.
	const big = 10_000_000
	if err := st.Host.Engine().SetStats(table, big, map[string]int64{"id": big, "doc": big}); err != nil {
		return nil, err
	}

	var owner func(string) string
	if def.cluster {
		owner = func(path string) string { return st.Host.ReadOwners(d.server, path)[0] }
	}
	if err := d.prime(owner); err != nil {
		return nil, fmt.Errorf("prime: %w", err)
	}
	for cl := 0; cl < clients; cl++ {
		d.gens = append(d.gens, newGenerator(seed, cl, clients, def.mix, def.rowsPerTxn, owner))
	}
	if err := d.preload(def.preload / sc.preloadDiv); err != nil {
		return nil, fmt.Errorf("preload: %w", err)
	}
	if def.paged {
		// The one checkpoint of set-up, at a fixed point: restart replays the
		// log from the last checkpoint, and warm-up takes none, so what the
		// recovery cycles replay is the warm-up's transactions on every run.
		if err := d.checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint after preload: %w", err)
		}
	}
	if warm := d.pass(passOpts{perClient: sc.warmup / clients}); warm.failed > 0 {
		return nil, fmt.Errorf("warm-up: %d of %d transactions failed: %w", warm.failed, warm.attempted, warm.firstErr)
	}
	built = true
	return d, nil
}

// prime links one row on every DLFM from a single session. A server's first
// link creates the column's file group there and notes it in the host's
// dl_grpsrv table; two sessions doing that at the same moment can deadlock
// (6 of 30 cluster_paxos runs lost a warm-up transaction that way). That is
// a start-up race of the program, written down in README.md as a finding,
// and not what any workload here measures, so no two clients start on a
// server nobody has linked to yet. Primer rows have negative ids, like
// recovery probes, and stay outside the mirror.
func (d *deployment) prime(owner func(path string) string) error {
	s := d.st.Host.Session()
	defer s.Close()
	primed := map[string]bool{}
	for i := int64(0); len(primed) < len(d.st.DLFMs); i++ {
		if i == 1000 {
			return fmt.Errorf("1000 paths reached only %d of %d DLFMs", len(primed), len(d.st.DLFMs))
		}
		path := fmt.Sprintf("/prime/f%04d", i)
		server := d.server
		if owner != nil {
			server = owner(path)
		}
		if primed[server] {
			continue
		}
		primed[server] = true
		d.createFile(path)
		if _, err := s.Exec(sqlInsert, value.Int(primerID-i), value.Int(0), value.Str(hostdb.URL(d.server, path))); err != nil {
			return err
		}
		if err := s.Commit(); err != nil {
			return err
		}
	}
	return nil
}

// primerID and below are the ids of primer rows; recovery probes count down
// from -1 and never get this far.
const primerID = -1 << 20

// preload inserts rows (split between the clients' generators) in
// transactions of about 100 rows.
func (d *deployment) preload(rows int) error {
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			g := d.gens[cl]
			s := d.st.Host.Session()
			defer s.Close()
			pending := 0
			for n := 0; n < rows/clients; n += g.rows {
				t := g.insert()
				for i := 0; i < t.n; i++ {
					d.createFile(t.path[i])
					if _, err := s.Exec(sqlInsert, value.Int(t.id[i]), value.Int(t.id[i]%97),
						value.Str(hostdb.URL(d.server, t.path[i]))); err != nil {
						errs[cl] = err
						return
					}
				}
				if pending += t.n; pending >= 100 {
					if errs[cl] = s.Commit(); errs[cl] != nil {
						return
					}
					pending = 0
				}
			}
			if pending > 0 {
				errs[cl] = s.Commit()
			}
		}(cl)
	}
	wg.Wait()
	return errors.Join(errs...)
}

func (d *deployment) close() {
	if d.st != nil {
		d.st.Close()
		d.st = nil
	}
	if d.dataDir != "" {
		os.RemoveAll(d.dataDir)
	}
}

// passOpts bounds one pass: a duration (measured phases) or a transaction
// count per client (warm-up).
type passOpts struct {
	duration  time.Duration
	perClient int
	traced    bool
}

// passResult is what the clients observed during one pass.
type passResult struct {
	wall      time.Duration
	cpu       time.Duration // process user+system CPU over the pass
	attempted int
	failed    int
	firstErr  error
	// problems are the wrong results the clients saw (errWrongResult): the
	// program answered, and the answer was not the committed state. One of
	// them makes the run incorrect, however the end state looks.
	problems []string
	// lat holds the client-observed time of every committed transaction in
	// milliseconds, first statement to Commit returning, in commit order
	// per client (client 0's samples, then client 1's).
	lat []float64
	// txns are the host transaction ids of committed transactions (traced
	// passes only).
	txns        []int64
	checkpoints []time.Duration
	mallocs     uint64
	allocBytes  uint64
	// ticks are readings of the clock, the process CPU time and the
	// committed count taken about once a second during a timed pass, the
	// first at its start and the last at its end.
	ticks []tick
}

type tick struct {
	at, cpu   time.Duration
	committed int64
}

// perSecond returns, for every interval between two ticks, the committed
// transactions per second and the CPU milliseconds per committed
// transaction. Their medians are what a run reports: a neighbour's burst on
// the shared box slows one or two intervals, not the median.
func (r *passResult) perSecond() (rate, cpuMS []float64) {
	for i := 1; i < len(r.ticks); i++ {
		a, b := r.ticks[i-1], r.ticks[i]
		n := float64(b.committed - a.committed)
		if b.at-a.at < tickEvery/2 || n == 0 {
			continue // the stub between the last full second and the end
		}
		rate = append(rate, n/(b.at-a.at).Seconds())
		cpuMS = append(cpuMS, (b.cpu-a.cpu).Seconds()*1e3/n)
	}
	return rate, cpuMS
}

const tickEvery = time.Second

func (r *passResult) committed() int { return len(r.lat) }

// add merges another pass over the same deployment into r.
func (r *passResult) add(o *passResult) {
	r.wall += o.wall
	r.cpu += o.cpu
	r.attempted += o.attempted
	r.failed += o.failed
	if r.firstErr == nil {
		r.firstErr = o.firstErr
	}
	r.problems = append(r.problems, o.problems...)
	r.lat = append(r.lat, o.lat...)
	r.txns = append(r.txns, o.txns...)
	r.checkpoints = append(r.checkpoints, o.checkpoints...)
	r.mallocs += o.mallocs
	r.allocBytes += o.allocBytes
	r.ticks = nil // intervals do not continue across passes
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// pass runs the closed loop: each client generates a transaction, creates
// its files, runs it and waits for the commit before generating the next.
func (d *deployment) pass(o passOpts) *passResult {
	if d.rec != nil {
		d.rec.on.Store(o.traced)
	}
	results := make([]passResult, clients)
	var wg sync.WaitGroup
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	var committed atomic.Int64
	cpu0, start := processCPU(), time.Now()
	deadline := start.Add(o.duration)
	for cl := 0; cl < clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			d.client(cl, o, deadline, &committed, &results[cl])
		}(cl)
	}
	read := func() tick {
		return tick{at: time.Since(start), cpu: processCPU() - cpu0, committed: committed.Load()}
	}
	ticks := []tick{{}}
	clientsDone := make(chan struct{})
	go func() { wg.Wait(); close(clientsDone) }()
	ticker := time.NewTicker(tickEvery)
	for running := true; running; {
		select {
		case <-ticker.C:
			ticks = append(ticks, read())
		case <-clientsDone:
			running = false
		}
	}
	ticker.Stop()
	last := read()
	res := &passResult{wall: last.at, cpu: last.cpu}
	runtime.ReadMemStats(&ms1)
	res.mallocs, res.allocBytes = ms1.Mallocs-ms0.Mallocs, ms1.TotalAlloc-ms0.TotalAlloc
	if d.rec != nil {
		d.rec.on.Store(false)
	}
	for i := range results {
		res.add(&results[i])
	}
	res.ticks = append(ticks, last)
	return res
}

func (d *deployment) client(cl int, o passOpts, deadline time.Time, committed *atomic.Int64, out *passResult) {
	g := d.gens[cl]
	s := d.st.Host.Session()
	defer s.Close()
	var ln *lane
	if o.traced {
		ln = d.rec.lane(1 << 16)
	}
	for n := 0; ; n++ {
		if o.perClient > 0 {
			if n >= o.perClient {
				return
			}
		} else if !time.Now().Before(deadline) {
			return
		}
		t := g.next()
		for i := 0; i < t.n; i++ {
			if t.path[i] != "" && t.kind != opRead {
				d.createFile(t.path[i])
			}
		}
		out.attempted++
		dur, txnID, err := d.runTxn(s, t, ln)
		if err != nil {
			out.failed++
			err = fmt.Errorf("client %d %s id %d: %w", cl, t.kind, t.id[0], err)
			if out.firstErr == nil {
				out.firstErr = err
			}
			if s.TxnID() != 0 {
				s.Rollback() //nolint:errcheck // the transaction already failed
			}
			if errors.Is(err, errWrongResult) {
				// A correctness failure, not an operational one: the ids stay
				// in the mirror, so the end-state check still covers them.
				if len(out.problems) < maxProblems {
					out.problems = append(out.problems, err.Error())
				}
				continue
			}
			for i := 0; i < t.n; i++ {
				g.taint(t.id[i])
			}
			continue
		}
		committed.Add(1)
		out.lat = append(out.lat, float64(dur)/1e6)
		if o.traced {
			out.txns = append(out.txns, txnID)
		}
		if d.def.paged && cl == 0 && o.duration > 0 { // timed passes only, see setup
			if d.sinceCheckpoint++; d.sinceCheckpoint >= d.def.checkpointEvery {
				d.sinceCheckpoint = 0
				c0 := time.Now()
				if err := d.checkpoint(); err != nil && len(out.problems) < maxProblems {
					out.problems = append(out.problems, "checkpoint: "+err.Error())
				}
				out.checkpoints = append(out.checkpoints, time.Since(c0))
			}
		}
	}
}

// checkpoint checkpoints every engine of a paged deployment.
func (d *deployment) checkpoint() error {
	if err := d.st.Host.Engine().Checkpoint(); err != nil {
		return err
	}
	for _, dl := range d.st.DLFMs {
		if err := dl.DB().Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

// errWrongResult marks a statement the program answered wrongly: a read
// that returned another DATALINK than the last committed one, or a statement
// that touched another number of rows than the one its id names. Unlike a
// deadlock, a timeout or a refusal it makes the run incorrect.
var errWrongResult = errors.New("wrong result")

// maxProblems caps the wrong results one client keeps per pass.
const maxProblems = 10

// runTxn runs one transaction and returns the client-observed time from
// its first statement to Commit returning. With a lane it also records the
// transaction's span and one child span per call into hostdb.
func (d *deployment) runTxn(s *hostdb.Session, t txn, ln *lane) (time.Duration, int64, error) {
	var root, txnID int64
	var kids [3]span
	nk := 0
	call := func(name string, f func() error) error {
		if ln == nil {
			return f()
		}
		c0 := d.rec.now()
		err := f()
		kids[nk] = span{Name: name, Start: c0, End: d.rec.now()}
		nk++
		if txnID == 0 {
			txnID = s.TxnID()
		}
		return err
	}
	exec := func(text string, params ...value.Value) func() error {
		return func() error {
			n, err := s.Exec(text, params...)
			if err == nil && n != 1 {
				err = fmt.Errorf("%w: statement touched %d rows, want 1", errWrongResult, n)
			}
			return err
		}
	}
	start := time.Now()
	if ln != nil {
		root = d.rec.nextID.Add(1)
	}
	var err error
	switch t.kind {
	case opInsert:
		for i := 0; i < t.n && err == nil; i++ {
			err = call("hostdb.exec", exec(sqlInsert, value.Int(t.id[i]), value.Int(t.id[i]%97),
				value.Str(hostdb.URL(d.server, t.path[i]))))
		}
	case opUpdate:
		err = call("hostdb.exec", exec(sqlUpdate, value.Str(hostdb.URL(d.server, t.path[0])), value.Int(t.id[0])))
	case opDelete:
		err = call("hostdb.exec", exec(sqlDelete, value.Int(t.id[0])))
	case opRead:
		err = call("hostdb.query", func() error {
			rows, err := s.Query(sqlSelect, value.Int(t.id[0]))
			if err != nil {
				return err
			}
			if len(rows) != 1 || len(rows[0]) != 1 {
				return fmt.Errorf("%w: read returned %d rows, want 1", errWrongResult, len(rows))
			}
			url, _, _ := strings.Cut(rows[0][0].Text(), "#") // access token aside
			if url != hostdb.URL(d.server, t.path[0]) {
				return fmt.Errorf("%w: read returned %s, last committed %s", errWrongResult, url, hostdb.URL(d.server, t.path[0]))
			}
			return nil
		})
	}
	if err == nil {
		err = call("hostdb.commit", s.Commit)
	}
	dur := time.Since(start)
	if ln != nil {
		end := d.rec.now()
		ln.spans = append(ln.spans, span{ID: root, Txn: txnID, Name: "bench.txn." + t.kind.String(),
			Start: end - int64(dur), End: end})
		for i := 0; i < nk; i++ {
			ln.add(root, txnID, kids[i].Name, kids[i].Start, kids[i].End)
		}
	}
	return dur, txnID, err
}

// verify checks the end state: DataLinks consistency between host, DLFMs
// and file servers, and that the host table holds exactly the rows the
// acknowledged commits left — none lost, none resurrected, every DATALINK
// the last committed one.
func (d *deployment) verify() []string {
	bad, err := workload.CheckConsistency(d.st, table)
	if err != nil {
		return []string{"consistency check: " + err.Error()}
	}
	rows, err := d.st.Host.Engine().DumpTable(table)
	if err != nil {
		return append(bad, "dump docs: "+err.Error())
	}
	got := make(map[int64]string, len(rows))
	for _, r := range rows {
		if id := r[0].Int64(); id > 0 { // probe rows have negative ids
			got[id] = r[2].Text()
		}
	}
	for _, g := range d.gens {
		for id, path := range g.cur {
			url, ok := got[id]
			switch {
			case !ok:
				bad = append(bad, fmt.Sprintf("acknowledged row %d is missing", id))
			case url != hostdb.URL(d.server, path):
				bad = append(bad, fmt.Sprintf("row %d holds %s, last committed %s", id, url, hostdb.URL(d.server, path)))
			}
			delete(got, id)
		}
	}
	for _, g := range d.gens {
		for id := range g.tainted {
			delete(got, id)
		}
	}
	for id := range got {
		bad = append(bad, fmt.Sprintf("row %d exists but was never committed or was deleted", id))
	}
	sort.Strings(bad)
	if len(bad) > 10 {
		bad = append(bad[:10], fmt.Sprintf("... and %d more", len(bad)-10))
	}
	return bad
}

// recoverOnce crashes the host and every DLFM, restarts them, resolves
// indoubt transactions and commits one probe link; it returns crash →
// probe commit acknowledged.
func (d *deployment) recoverOnce(probe int64) (time.Duration, error) {
	path := fmt.Sprintf("/probe/f%04d", probe)
	d.createFile(path)
	start := time.Now()
	if err := d.st.Host.Crash(); err != nil {
		return 0, fmt.Errorf("host crash: %w", err)
	}
	for name := range d.st.DLFMs {
		d.st.Kill(name)
		d.st.Restart(name)
	}
	if _, err := d.st.Host.ResolveIndoubts(); err != nil {
		return 0, fmt.Errorf("resolve indoubts: %w", err)
	}
	s := d.st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(sqlInsert, value.Int(-probe), value.Int(0), value.Str(hostdb.URL(d.server, path))); err != nil {
		return 0, fmt.Errorf("probe insert: %w", err)
	}
	if err := s.Commit(); err != nil {
		return 0, fmt.Errorf("probe commit: %w", err)
	}
	return time.Since(start), nil
}

// liveHeapMB is the heap still reachable after a collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
