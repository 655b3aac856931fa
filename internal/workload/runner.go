package workload

import (
	"errors"
	"fmt"
	"math/rand"
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
	// paper's system test used 100).
	Clients int
	// Duration bounds the run; with OpsPerClient == 0 clients loop until
	// it elapses.
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
}

// Result summarizes a run.
type Result struct {
	Duration time.Duration

	Ops      int64
	Commits  int64
	Rollback int64
	Retries  int64

	Inserts int64
	Updates int64
	Deletes int64
	Reads   int64

	InsertsPerMin float64
	UpdatesPerMin float64
	OpsPerSec     float64

	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration
}

// String renders the result the way the harness prints report rows.
func (r Result) String() string {
	return fmt.Sprintf(
		"ops=%d commits=%d rollbacks=%d retries=%d | inserts/min=%.0f updates/min=%.0f ops/s=%.1f | p50=%s p95=%s p99=%s max=%s",
		r.Ops, r.Commits, r.Rollback, r.Retries,
		r.InsertsPerMin, r.UpdatesPerMin, r.OpsPerSec,
		r.LatencyP50.Round(time.Microsecond), r.LatencyP95.Round(time.Microsecond),
		r.LatencyP99.Round(time.Microsecond), r.LatencyMax.Round(time.Microsecond))
}

// Runner drives a workload against a stack.
type Runner struct {
	st  *Stack
	cfg Config

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
	return &Runner{st: st, cfg: cfg}, nil
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
				if err := s.Commit(); err != nil {
					return err
				}
			}
		}
		if s.TxnID() == 0 {
			return nil
		}
		return s.Commit()
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
	var (
		ops, commits, rollbacks, retries atomic.Int64
		inserts, updates, deletes, reads atomic.Int64
	)
	// Per-op latency is accumulated in a fresh histogram each run; it is
	// also published on the process-wide registry (replace semantics), so a
	// concurrent /metrics scrape sees the run in flight.
	lat := obs.NewHistogram()
	obs.Default().RegisterHistogram("workload_op_seconds", lat)

	deadline := time.Now().Add(r.cfg.Duration)
	var wg sync.WaitGroup
	errCh := make(chan error, r.cfg.Clients)

	for cl := 0; cl < r.cfg.Clients; cl++ {
		wg.Add(1)
		go func(cl int) {
			defer wg.Done()
			cs := &clientState{
				rng:  rand.New(rand.NewSource(r.cfg.Seed + int64(cl))),
				sess: r.st.Host.Session(),
			}
			defer cs.sess.Close()
			for i := 0; ; i++ {
				if r.cfg.OpsPerClient > 0 {
					if i >= r.cfg.OpsPerClient {
						return
					}
				} else if time.Now().After(deadline) {
					return
				}
				start := time.Now()
				kind, err := r.oneOp(cs)
				lat.Observe(time.Since(start))
				ops.Add(1)
				switch {
				case err == nil:
					commits.Add(1)
					switch kind {
					case "insert":
						inserts.Add(1)
					case "update":
						updates.Add(1)
					case "delete":
						deletes.Add(1)
					default:
						reads.Add(1)
					}
				case errors.Is(err, hostdb.ErrCommitUnacked):
					// The decision is durable and the transaction committed;
					// only the phase-2 acknowledgements are outstanding (the
					// coordinator-crash window the commit-protocol experiment
					// injects). The client's work is done.
					commits.Add(1)
				case errors.Is(err, hostdb.ErrOutcomeUnknown):
					// The transaction may or may not have committed; its host
					// rows stay locked until indoubt resolution. oneOp has
					// stopped tracking them.
					rollbacks.Add(1)
				case errors.Is(err, hostdb.ErrTxnRolledBack):
					// Deadlock/timeout victim: the paper's applications
					// retry. Acknowledge, count, continue.
					rollbacks.Add(1)
					retries.Add(1)
					if cs.sess.TxnID() != 0 {
						cs.sess.Rollback()
					}
				case errors.Is(err, hostdb.ErrStatement):
					// Duplicate/races between clients: roll back and move
					// on (distinct from system-level failures).
					rollbacks.Add(1)
					cs.sess.Rollback()
				default:
					errCh <- fmt.Errorf("client %d: %w", cl, err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		return Result{}, err
	}

	elapsed := r.cfg.Duration
	if r.cfg.OpsPerClient > 0 || elapsed <= 0 {
		elapsed = 0
	}
	sum := lat.Summarize()
	if elapsed == 0 {
		elapsed = sum.Sum / time.Duration(max(r.cfg.Clients, 1))
		if elapsed == 0 {
			elapsed = time.Millisecond
		}
	}

	res := Result{
		Duration: elapsed,
		Ops:      ops.Load(),
		Commits:  commits.Load(),
		Rollback: rollbacks.Load(),
		Retries:  retries.Load(),
		Inserts:  inserts.Load(),
		Updates:  updates.Load(),
		Deletes:  deletes.Load(),
		Reads:    reads.Load(),
	}
	mins := elapsed.Minutes()
	if mins > 0 {
		res.InsertsPerMin = float64(res.Inserts) / mins
		res.UpdatesPerMin = float64(res.Updates) / mins
		res.OpsPerSec = float64(res.Ops) / elapsed.Seconds()
	}
	if sum.Count > 0 {
		res.LatencyP50 = sum.P50
		res.LatencyP95 = sum.P95
		res.LatencyP99 = sum.P99
		res.LatencyMax = sum.Max
	}
	return res, nil
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

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
