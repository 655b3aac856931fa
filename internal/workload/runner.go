package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/value"
)

// Mix is the operation mix of the client workload, in percent (the
// remainder after the named operations becomes reads).
type Mix struct {
	InsertPct int // link a new file (paper's "insert rate")
	UpdatePct int // replace a row's file with a new version (unlink+link)
	DeletePct int // delete a row (unlink)
}

// DefaultMix approximates the paper's system test: link-heavy with a
// substantial update share.
func DefaultMix() Mix { return Mix{InsertPct: 40, UpdatePct: 25, DeletePct: 10} }

// Config controls one workload run.
type Config struct {
	// Clients is the number of concurrent application sessions (the
	// paper's system test used 100). In open-loop mode it is the pool of
	// sessions the arrivals queue for.
	Clients int
	// Duration bounds the run; with OpsPerClient == 0 clients loop until
	// it elapses. In open-loop mode it sizes Sessions when that is zero.
	Duration time.Duration
	// OpsPerClient, when > 0, runs a fixed number of operations instead.
	OpsPerClient int
	// Mix is the operation mix.
	Mix Mix
	// Server is the target file server — a physical DLFM name or a logical
	// cluster name (must exist in the stack).
	Server string
	// Table is the host table (created by Prepare).
	Table string
	// PathPrefix namespaces this runner's file paths (default "/data").
	// Runners sharing one cluster namespace need distinct prefixes, or they
	// would race to link the same paths.
	PathPrefix string
	// PreloadRows seeds the table before measurement so updates, deletes,
	// and reads have material to work on.
	PreloadRows int
	// TxnOps bundles several statements into each committed transaction
	// (default 1). Longer transactions hold their locks longer, which is
	// what makes the next-key deadlocks of experiment E3 form.
	TxnOps int
	// Seed makes runs reproducible.
	Seed int64

	// Rate, when > 0, opens the loop: transactions arrive as a Poisson
	// process at Rate per second whatever the system's pace, wait for a
	// free client, and are timed from arrival — queueing included, the
	// latency a caller actually sees. Closed-loop clients slow down with
	// the system, so saturation stays invisible to them.
	Rate float64
	// Sessions is the number of open-loop arrivals (default
	// Rate*Duration).
	Sessions int
}

// Result summarizes a run. Every operation (every arrival, in open-loop
// mode) ends as exactly one of Commits, Rollback or Shed.
type Result struct {
	Ops      int64
	Commits  int64
	Rollback int64
	Retries  int64 // rollbacks of deadlock/timeout victims
	Shed     int64 // refused at admission (hostdb.ErrOverload)

	Inserts int64
	Updates int64
	Deletes int64
	Reads   int64

	// Latency of committed transactions.
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration
}

// String renders the result the way the harness prints report rows.
func (r Result) String() string {
	return fmt.Sprintf(
		"ops=%d commits=%d rollbacks=%d retries=%d shed=%d | p50=%s p95=%s p99=%s max=%s",
		r.Ops, r.Commits, r.Rollback, r.Retries, r.Shed,
		r.LatencyP50.Round(time.Microsecond), r.LatencyP95.Round(time.Microsecond),
		r.LatencyP99.Round(time.Microsecond), r.LatencyMax.Round(time.Microsecond))
}

// Runner drives a workload against a stack.
type Runner struct {
	st  *Stack
	cfg Config
	lat *obs.Histogram // committed-transaction latency; RunChaos shares one

	fileSeq atomic.Int64
}

// NewRunner validates the configuration and binds it to a stack.
func NewRunner(st *Stack, cfg Config) (*Runner, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 1
	}
	if cfg.Server == "" {
		if st.ClusterName != "" {
			cfg.Server = st.ClusterName
		} else {
			for name := range st.DLFMs {
				cfg.Server = name
				break
			}
		}
	}
	if _, exists := st.DLFMs[cfg.Server]; !exists && st.Host.Cluster(cfg.Server) == nil {
		return nil, fmt.Errorf("workload: unknown server %q", cfg.Server)
	}
	if cfg.Table == "" {
		cfg.Table = "wl_files"
	}
	if cfg.Duration <= 0 && cfg.OpsPerClient <= 0 {
		cfg.OpsPerClient = 100
	}
	if cfg.TxnOps <= 0 {
		cfg.TxnOps = 1
	}
	if cfg.PathPrefix == "" {
		cfg.PathPrefix = "/data"
	}
	if cfg.Rate > 0 && cfg.Sessions <= 0 {
		cfg.Sessions = max(int(cfg.Rate*cfg.Duration.Seconds()), 1)
	}
	return &Runner{st: st, cfg: cfg, lat: obs.NewHistogram()}, nil
}

// Prepare creates the workload table and preloads rows. Idempotent per
// table name.
func (r *Runner) Prepare() error {
	err := r.st.Host.CreateTable(
		fmt.Sprintf(`CREATE TABLE %s (id BIGINT NOT NULL, owner BIGINT, doc VARCHAR)`, r.cfg.Table),
		hostdb.DatalinkCol{Name: "doc", Recovery: false, FullControl: false},
	)
	if err != nil {
		return err
	}
	c := r.st.Host.Engine().Connect()
	if _, err := c.Exec(fmt.Sprintf(`CREATE UNIQUE INDEX %s_id ON %s (id)`, r.cfg.Table, r.cfg.Table)); err != nil {
		return err
	}
	if _, err := c.Exec(fmt.Sprintf(`CREATE INDEX %s_owner ON %s (owner)`, r.cfg.Table, r.cfg.Table)); err != nil {
		return err
	}
	// The host table is hot too; index plans matter there as well.
	big := int64(10_000_000)
	r.st.Host.Engine().SetStats(r.cfg.Table, big, map[string]int64{"id": big, "owner": 1000, "doc": big})

	if r.cfg.PreloadRows > 0 {
		s := r.st.Host.Session()
		defer s.Close()
		// A batch whose commit decision is durable but whose phase-2
		// acknowledgements were lost (a coordinator-crash fault armed
		// before the run) has committed all the same.
		commit := func() error {
			if err := s.Commit(); err != nil && !errors.Is(err, hostdb.ErrCommitUnacked) {
				return err
			}
			return nil
		}
		for i := 0; i < r.cfg.PreloadRows; i++ {
			id := r.nextFileID()
			path := r.newFile(id)
			if _, err := s.Exec(
				fmt.Sprintf(`INSERT INTO %s (id, owner, doc) VALUES (?, ?, ?)`, r.cfg.Table),
				value.Int(id), value.Int(id%int64(max(r.cfg.Clients, 1))),
				value.Str(hostdb.URL(r.cfg.Server, path))); err != nil {
				s.Rollback()
				return fmt.Errorf("workload: preload: %w", err)
			}
			if (i+1)%50 == 0 {
				if err := commit(); err != nil {
					return err
				}
			}
		}
		if s.TxnID() == 0 {
			return nil
		}
		return commit()
	}
	return nil
}

func (r *Runner) nextFileID() int64 { return r.fileSeq.Add(1) }

// newFile creates a fresh file on the member(s) the path may link to and
// returns its path.
func (r *Runner) newFile(id int64) string {
	path := fmt.Sprintf("%s/f%08d", r.cfg.PathPrefix, id)
	// Creation failures only happen on path collisions, which the sequence
	// prevents.
	for _, fs := range r.st.CreateTargets(r.cfg.Server, path) {
		fs.Create(path, "app", []byte(fmt.Sprintf("content-%d", id))) //nolint:errcheck
	}
	return path
}

// clientState tracks the ids a client knows to be present, so updates,
// deletes, and reads hit real rows.
type clientState struct {
	rng  *rand.Rand
	ids  []int64
	sess *hostdb.Session
}

// forgetID stops the client from touching id again: a transaction whose
// outcome is unknown left the row locked and its contents undecided.
func (cs *clientState) forgetID(id int64) {
	for i, v := range cs.ids {
		if v == id {
			cs.ids[i] = cs.ids[len(cs.ids)-1]
			cs.ids = cs.ids[:len(cs.ids)-1]
			return
		}
	}
}

// Run executes the workload and collects metrics.
func (r *Runner) Run() (Result, error) {
	next := r.closedLoop()
	if r.cfg.Rate > 0 {
		// Arrival-to-completion latency, published on the process-wide
		// registry.
		obs.Default().RegisterHistogram("storm_txn_seconds", r.lat)
		next = r.openLoop()
	}
	results := make([]Result, r.cfg.Clients)
	errs := make([]error, r.cfg.Clients)
	var wg sync.WaitGroup
	for cl := range results {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			results[cl], errs[cl] = r.client(cl, next)
		}(cl)
	}
	wg.Wait()
	var res Result
	for _, cr := range results {
		addFields(reflect.ValueOf(&res).Elem(), reflect.ValueOf(cr))
	}
	res.summarize(r.lat)
	return res, errors.Join(errs...)
}

// summarize fills the latency percentiles from h.
func (r *Result) summarize(h *obs.Histogram) {
	sum := h.Summarize()
	r.LatencyP50, r.LatencyP95, r.LatencyP99, r.LatencyMax = sum.P50, sum.P95, sum.P99, sum.Max
}

// closedLoop paces each client by its own completions: the next
// transaction starts when the last one ends, until OpsPerClient or
// Duration runs out.
func (r *Runner) closedLoop() func(i int) (start time.Time, more bool) {
	deadline := time.Now().Add(r.cfg.Duration)
	return func(i int) (time.Time, bool) {
		now := time.Now()
		if r.cfg.OpsPerClient > 0 {
			return now, i < r.cfg.OpsPerClient
		}
		return now, now.Before(deadline)
	}
}

// openLoop starts the arrival generator and hands clients the arrivals in
// order. The generator sleeps toward each arrival's absolute due time
// rather than per arrival, which would cap the rate at the scheduler's
// wake-up granularity; an overshooting sleep publishes a burst, as a real
// Poisson stream bunches. The queue holds every session, so the generator
// never blocks on slow clients: that is what makes the loop open.
func (r *Runner) openLoop() func(i int) (start time.Time, more bool) {
	queue := make(chan time.Time, r.cfg.Sessions)
	go func() {
		defer close(queue)
		rng := rand.New(rand.NewSource(r.cfg.Seed*104729 + 7))
		next := time.Now()
		for i := 0; i < r.cfg.Sessions; i++ {
			next = next.Add(expDur(rng, r.cfg.Rate))
			time.Sleep(time.Until(next))
			queue <- next
		}
	}()
	return func(int) (time.Time, bool) {
		arrived, more := <-queue
		return arrived, more
	}
}

// expDur draws an exponential inter-arrival time for a Poisson process at
// rate per second.
func expDur(rng *rand.Rand, rate float64) time.Duration {
	d := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	if d > math.MaxInt64/2 {
		d = math.MaxInt64 / 2
	}
	return d
}

// client runs one session until next reports no more work, classifying
// every transaction's outcome.
func (r *Runner) client(cl int, next func(i int) (time.Time, bool)) (Result, error) {
	var res Result
	cs := &clientState{
		rng:  rand.New(rand.NewSource(r.cfg.Seed + int64(cl))),
		sess: r.st.Host.Session(),
	}
	defer cs.sess.Close()
	for i := 0; ; i++ {
		start, more := next(i)
		if !more {
			return res, nil
		}
		kind, err := r.oneOp(cs)
		res.Ops++
		switch {
		case err == nil:
			res.Commits++
			r.lat.Observe(time.Since(start))
			switch kind {
			case "insert":
				res.Inserts++
			case "update":
				res.Updates++
			case "delete":
				res.Deletes++
			default:
				res.Reads++
			}
		case errors.Is(err, hostdb.ErrCommitUnacked):
			// The decision is durable and the transaction committed; only
			// the phase-2 acknowledgements are outstanding (the
			// coordinator-crash window the commit-protocol experiment
			// injects). The client's work is done.
			res.Commits++
			r.lat.Observe(time.Since(start))
		case errors.Is(err, hostdb.ErrOverload):
			// Refused at the door: nothing started. The caller's retry is
			// a later arrival, not a tight loop here.
			res.Shed++
		case errors.Is(err, hostdb.ErrTxnRolledBack),
			errors.Is(err, hostdb.ErrStatement),
			errors.Is(err, hostdb.ErrOutcomeUnknown):
			// Deadlock/timeout victims are retried by the paper's
			// applications; statement failures are races between clients.
			// An unknown outcome leaves its rows locked until indoubt
			// resolution, and oneOp has stopped tracking them.
			res.Rollback++
			if errors.Is(err, hostdb.ErrTxnRolledBack) {
				res.Retries++
			}
			if cs.sess.TxnID() != 0 {
				cs.sess.Rollback()
			}
		default:
			return res, fmt.Errorf("client %d: %w", cl, err)
		}
	}
}

// oneOp executes one client transaction and reports its kind.
func (r *Runner) oneOp(cs *clientState) (string, error) {
	roll := cs.rng.Intn(100)
	mix := r.cfg.Mix
	s := cs.sess
	table := r.cfg.Table
	switch {
	case roll < mix.InsertPct || len(cs.ids) == 0:
		var newIDs []int64
		for k := 0; k < r.cfg.TxnOps; k++ {
			id := r.nextFileID()
			path := r.newFile(id)
			if _, err := s.Exec(
				fmt.Sprintf(`INSERT INTO %s (id, owner, doc) VALUES (?, ?, ?)`, table),
				value.Int(id), value.Int(id%97), value.Str(hostdb.URL(r.cfg.Server, path))); err != nil {
				return "insert", err
			}
			newIDs = append(newIDs, id)
		}
		if err := s.Commit(); err != nil {
			return "insert", err
		}
		cs.ids = append(cs.ids, newIDs...)
		return "insert", nil

	case roll < mix.InsertPct+mix.UpdatePct:
		id := cs.ids[cs.rng.Intn(len(cs.ids))]
		newID := r.nextFileID()
		path := r.newFile(newID)
		if _, err := s.Exec(
			fmt.Sprintf(`UPDATE %s SET doc = ? WHERE id = ?`, table),
			value.Str(hostdb.URL(r.cfg.Server, path)), value.Int(id)); err != nil {
			return "update", err
		}
		if err := s.Commit(); err != nil {
			if errors.Is(err, hostdb.ErrOutcomeUnknown) {
				cs.forgetID(id)
			}
			return "update", err
		}
		return "update", nil

	case roll < mix.InsertPct+mix.UpdatePct+mix.DeletePct:
		var picked []int64
		for k := 0; k < r.cfg.TxnOps && len(cs.ids) > 0; k++ {
			last := len(cs.ids) - 1
			pick := cs.rng.Intn(len(cs.ids))
			id := cs.ids[pick]
			if _, err := s.Exec(fmt.Sprintf(`DELETE FROM %s WHERE id = ?`, table), value.Int(id)); err != nil {
				// Put survivors back conceptually: ids already removed from
				// cs.ids stay removed; the failed txn restores the rows but
				// re-tracking them is unnecessary for workload purposes.
				return "delete", err
			}
			cs.ids[pick] = cs.ids[last]
			cs.ids = cs.ids[:last]
			picked = append(picked, id)
		}
		if err := s.Commit(); err != nil {
			return "delete", err
		}
		_ = picked
		return "delete", nil

	default:
		id := cs.ids[cs.rng.Intn(len(cs.ids))]
		if _, err := s.Query(fmt.Sprintf(`SELECT doc FROM %s WHERE id = ?`, table), value.Int(id)); err != nil {
			return "read", err
		}
		if err := s.Commit(); err != nil {
			return "read", err
		}
		return "read", nil
	}
}
