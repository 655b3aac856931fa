// Package core implements the DataLinks File Manager (DLFM), the paper's
// transactional resource manager. DLFM runs next to a file server and keeps
// files referenced from a host database consistent with that database:
//
//   - LinkFile/UnlinkFile execute in the host transaction's context and are
//     made atomic with it through a two-phase-commit protocol in which DLFM
//     is the participant (Section 3.3);
//   - all DLFM metadata lives in a local database (package engine) that
//     DLFM uses strictly through SQL, as the paper's DLFM uses DB2 — which
//     forces the delayed-update scheme for rolling back after a local
//     commit, the hand-crafted-statistics optimizer guard, the disabled
//     next-key locking, and the phase-2 retry loop (Sections 3.2-4);
//   - a set of daemons (Copy, Retrieve, Garbage Collector, Delete Group,
//     Chown, Upcall) performs the asynchronous work (Section 3.5).
package core

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/archive"
	"repro/internal/engine"
	"repro/internal/fsim"
	"repro/internal/obs"
)

// Config tunes one DLFM instance. Defaults reproduce the paper's production
// settings; benchmarks flip individual knobs for the ablation experiments.
type Config struct {
	// ServerName is the file-server host this DLFM manages.
	ServerName string
	// DB configures the local database. Engine knobs (lock timeout,
	// next-key locking, escalation) are the paper's tuning surface.
	DB engine.Config
	// AdminUser owns files taken over under full access control ("the
	// DLFM changes the owner of the file to the DBMS").
	AdminUser string
	// HandCraftStats installs large hand-crafted catalog statistics before
	// binding DLFM's SQL, forcing index plans (Section 3.2.1). Disabling
	// it reproduces the optimizer gotcha (experiment E5).
	HandCraftStats bool
	// StatsGuard re-installs hand-crafted statistics (and re-binds plans)
	// if a user RUNSTATS overwrote them (Section 4).
	StatsGuard bool
	// BatchCommitN is the local-commit interval for batched (utility)
	// transactions and for the Delete Group daemon; 0 runs each unit of
	// work as a single local transaction (the log-full hazard, E8).
	BatchCommitN int
	// KeepBackups is the retention policy: unlinked entries and archive
	// copies needed only by older backups are garbage collected.
	KeepBackups int
	// GroupLifespan is how long a fully-unlinked dropped group's metadata
	// survives before the Garbage Collector removes it.
	GroupLifespan time.Duration
	// CopyInterval and GCInterval are daemon polling periods.
	CopyInterval time.Duration
	GCInterval   time.Duration
	// Phase2Backoff is the base pause between phase-2 commit/abort retries;
	// it grows exponentially (with jitter) up to Phase2BackoffCap. Zero
	// retries without sleeping.
	Phase2Backoff time.Duration
	// Phase2BackoffCap bounds the exponential growth of the retry pause.
	// Zero defaults to 64× the base.
	Phase2BackoffCap time.Duration
	// Phase2MaxRetries caps phase-2 retry attempts. The paper's DLFM "keeps
	// retrying until it succeeds"; the cap surfaces a permanently wedged
	// transaction (dlfm_phase2_giveups_total, 2pc/phase2_giveup trace event)
	// instead of spinning forever — the transaction entry survives, so the
	// host's indoubt resolution re-drives it later. Zero or negative means
	// retry forever.
	Phase2MaxRetries int
	// UpcallTimeout bounds how long a DLFF upcall waits for the Upcall
	// daemon; an expired wait denies the file operation. Zero defaults to
	// 5 s.
	UpcallTimeout time.Duration
	// Phase2Delay injects latency at the start of commit processing,
	// modelling the real work the paper's DLFM did there (SQL against the
	// local database, chown traffic). Experiment E6 uses it to open the
	// asynchronous-commit deadlock window deterministically.
	Phase2Delay time.Duration
	// ManualDeleteGroup disables the Delete Group daemon's automatic
	// processing; work is driven through RunDeleteGroup instead. Tests and
	// the E8 benchmark use it to control the batch size deterministically.
	ManualDeleteGroup bool
	// OutcomeLearner, when set, lets this DLFM learn a prepared
	// transaction's outcome without its coordinator — the non-blocking
	// property of Paxos Commit. The learner daemon calls it for prepared
	// entries older than LearnGrace and applies the returned
	// paxoscommit.OutcomeCommit/OutcomeAbort through the normal phase-2
	// paths. It must only be wired when the host commits through Paxos:
	// under plain 2PC there are no acceptors and a learner would abort
	// transactions whose coordinator is alive and about to commit.
	OutcomeLearner func(txn int64) (string, error)
	// LearnInterval is the learner daemon's polling period (default 25 ms);
	// LearnGrace is how old a prepared entry must be before the learner
	// consults the acceptors (default 200 ms), so a live coordinator's own
	// phase 2 wins the race in the common case.
	LearnInterval time.Duration
	LearnGrace    time.Duration
	// Obs receives every counter and histogram of this DLFM and its local
	// database. Nil means a fresh registry labeled server=<ServerName> is
	// created; retrieve it with Server.Obs.
	Obs *obs.Registry
	// Tracer receives this DLFM's spans and marks. Nil means a fresh
	// default tracer is created; retrieve it with Server.Tracer.
	// Multi-DLFM stacks share one tracer so a transaction's timeline
	// stays chronological.
	Tracer *obs.Tracer
	// Flight, when non-nil, receives deadlock/timeout victim captures from
	// the local lock manager. Stacks share one recorder so /debug/waitgraph
	// shows victims from every participant.
	Flight *obs.FlightRecorder
}

// DefaultConfig returns the paper's production configuration for a DLFM on
// server name: 60 s lock timeout, deadlock detection on, next-key locking
// OFF (the fix), hand-crafted statistics ON, batched commits every 100
// operations, keep 2 backups.
func DefaultConfig(name string) Config {
	db := engine.DefaultConfig("dlfmdb-" + name)
	db.NextKeyLocking = false // the paper's fix for multi-index deadlocks
	// A participant's yes-vote ('P' row) must be durable before it reaches
	// the coordinator: the prepare handler hardens it with a local commit,
	// so that commit has to force the log.
	db.SyncCommit = true
	// Concurrent agents share one fsync per log write burst (WAL group
	// commit); a lone committer still pays exactly one.
	db.GroupCommit = true
	return Config{
		ServerName:     name,
		DB:             db,
		AdminUser:      "dlfmadm",
		HandCraftStats: true,
		StatsGuard:     true,
		BatchCommitN:   100,
		KeepBackups:    2,
		GroupLifespan:  time.Hour,
		CopyInterval:   10 * time.Millisecond,
		GCInterval:     50 * time.Millisecond,
		Phase2Backoff:  time.Millisecond,
		// ~100 attempts against a 50 ms cap gives several seconds of retry
		// before a wedged transaction is surfaced and left for resolution.
		Phase2BackoffCap: 50 * time.Millisecond,
		Phase2MaxRetries: 100,
		UpcallTimeout:    5 * time.Second,
	}
}

// Server is one DLFM instance.
type Server struct {
	cfg  Config
	db   *engine.DB
	fs   *fsim.Server
	arch *archive.Server

	stmts *stmtCache

	chown    *chownDaemon
	upcall   *upcallDaemon
	copyd    *copyDaemon
	retrieve *retrieveDaemon
	gc       *gcDaemon
	delGroup *deleteGroupDaemon
	learner  *learnerDaemon

	stats  Stats
	obs    *obs.Registry
	tracer *obs.Tracer
	// Phase latency histograms (exposed as dlfm_*_seconds).
	linkHist    *obs.Histogram
	prepareHist *obs.Histogram
	phase2Hist  *obs.Histogram

	// standby marks a hot-spare instance: its database is populated only
	// by the replication apply path, writes are fenced at the agent, and
	// the daemons wait for Promote.
	standby atomic.Bool

	// serving counts the child agents serving each transaction.
	serving txnCounts

	mu      sync.Mutex
	stopped bool
}

// New opens a DLFM managing files on fs, archiving to arch. The local
// database is created (or recovered) according to cfg.DB, the metadata
// schema is bootstrapped, statistics are crafted, the SQL programs are
// bound, and the service daemons start.
func New(cfg Config, fs *fsim.Server, arch *archive.Server) (*Server, error) {
	return newServer(cfg, fs, arch, false)
}

// NewStandby opens a DLFM in standby (hot-spare) mode. The local database
// starts empty — schema and data arrive exclusively through the engine's
// replication apply path, fed by a repl.Standby — so no schema is
// bootstrapped, no SQL is bound, and no daemons run. The agent fences
// every request except Ping, Stats, IsLinked, and ReplFetch until Promote
// flips the instance to primary.
func NewStandby(cfg Config, fs *fsim.Server, arch *archive.Server) (*Server, error) {
	return newServer(cfg, fs, arch, true)
}

func newServer(cfg Config, fs *fsim.Server, arch *archive.Server, standby bool) (*Server, error) {
	if cfg.AdminUser == "" {
		cfg.AdminUser = "dlfmadm"
	}
	if cfg.Obs == nil {
		cfg.Obs = obs.New().Label("server", cfg.ServerName)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracerCfg(obs.TracerConfig{})
	}
	// The local database shares the DLFM's registry and tracer, so one
	// scrape covers the whole instance: dlfm_*, engine_*, lock_*, wal_*.
	cfg.DB.Obs = cfg.Obs
	cfg.DB.Tracer = cfg.Tracer
	if cfg.DB.Flight == nil {
		cfg.DB.Flight = cfg.Flight
	}
	db, err := engine.Open(cfg.DB)
	if err != nil {
		return nil, fmt.Errorf("core: open local database: %w", err)
	}
	s := &Server{
		cfg:         cfg,
		db:          db,
		fs:          fs,
		arch:        arch,
		obs:         cfg.Obs,
		tracer:      cfg.Tracer,
		linkHist:    obs.NewHistogram(),
		prepareHist: obs.NewHistogram(),
		phase2Hist:  obs.NewHistogram(),
	}
	s.stats.register(s.obs)
	s.obs.RegisterHistogram("dlfm_link_seconds", s.linkHist)
	s.obs.RegisterHistogram("dlfm_prepare_seconds", s.prepareHist)
	s.obs.RegisterHistogram("dlfm_phase2_commit_seconds", s.phase2Hist)
	s.stmts = newStmtCache(s)
	if standby {
		s.standby.Store(true)
		return s, nil
	}
	if err := s.bootstrapSchema(); err != nil {
		db.Close()
		return nil, err
	}
	if cfg.HandCraftStats {
		s.craftStats()
	}
	if err := s.stmts.bindAll(); err != nil {
		db.Close()
		return nil, err
	}
	s.startDaemons()
	return s, nil
}

// IsStandby reports whether the instance is still a fenced hot spare.
func (s *Server) IsStandby() bool { return s.standby.Load() }

// Promote flips a standby DLFM to primary: crafted statistics are
// installed, the SQL programs are bound against the replicated schema, and
// the six service daemons start. Prepared transactions that arrived through
// the stream are already sitting in dlfm_txn as 'P' rows (and, for XA
// branches, as engine indoubts), so the host's resolution daemon can drive
// them to their outcome immediately after promotion. Promoting a primary is
// a no-op.
func (s *Server) Promote() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stopped {
		return fmt.Errorf("core: cannot promote stopped server %s", s.cfg.ServerName)
	}
	if !s.standby.Load() {
		return nil
	}
	// Usually a no-op: the schema arrived as replicated DDL. A standby
	// promoted before any records shipped still comes up as a working,
	// empty primary.
	if err := s.bootstrapSchema(); err != nil {
		return fmt.Errorf("core: promote %s: %w", s.cfg.ServerName, err)
	}
	if s.cfg.HandCraftStats {
		s.craftStats()
	}
	if err := s.stmts.bindAll(); err != nil {
		return fmt.Errorf("core: promote %s: bind: %w", s.cfg.ServerName, err)
	}
	s.startDaemons()
	s.standby.Store(false)
	s.stats.Promotes.Add(1)
	s.tracer.Emit(0, "repl", "promote", s.cfg.ServerName)
	return nil
}

// DB exposes the local database for diagnostics, the benchmark harness, and
// tests. Production code paths in this package only use SQL.
func (s *Server) DB() *engine.DB { return s.db }

// FS returns the managed file server.
func (s *Server) FS() *fsim.Server { return s.fs }

// Archive returns the archive server.
func (s *Server) Archive() *archive.Server { return s.arch }

// Upcaller returns the DLFF-facing upcall interface, served by the Upcall
// daemon.
func (s *Server) Upcaller() fsim.Upcaller { return s.upcall }

// Name returns the file server name this DLFM manages.
func (s *Server) Name() string { return s.cfg.ServerName }

// Obs returns the registry holding this DLFM's metrics (and those of its
// local database), for /metrics exposition.
func (s *Server) Obs() *obs.Registry { return s.obs }

// Tracer returns the tracer recording this DLFM's spans and marks.
func (s *Server) Tracer() *obs.Tracer { return s.tracer }

// WaitEdges renders this DLFM's live lock wait-for edges with trace-id
// annotations. Engine-local txn ids collide across members (every engine
// numbers from 1), so each edge also carries the global trace id the
// tracer has bound for the txn — the join key that lets the fleet plane
// merge wait chains spanning DLFMs into one graph.
func (s *Server) WaitEdges() []obs.WaitEdge {
	lm := s.db.LockManager()
	if lm == nil {
		return nil
	}
	d := lm.Dump()
	var edges []obs.WaitEdge
	for waiter, holders := range d.WaitsFor {
		for _, holder := range holders {
			edges = append(edges, obs.WaitEdge{
				WaiterTxn:   waiter,
				HolderTxn:   holder,
				WaiterTrace: s.tracer.CtxOf(waiter).Trace,
				HolderTrace: s.tracer.CtxOf(holder).Trace,
			})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].WaiterTxn != edges[j].WaiterTxn {
			return edges[i].WaiterTxn < edges[j].WaiterTxn
		}
		return edges[i].HolderTxn < edges[j].HolderTxn
	})
	return edges
}

// Close stops the daemons and the local database.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return nil
	}
	s.stopped = true
	s.mu.Unlock()
	s.stopDaemons()
	return s.db.Close()
}

// Halt stops the server's daemons and refuses further service without
// closing its local database: the DLFM process is gone for good, but its
// durable state — in particular the write-ahead log — remains readable.
// This is the shared-log-device failure model: a standby's Promote drains
// the rest of the dead primary's log through a LogFeed over this database.
func (s *Server) Halt() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	s.mu.Unlock()
	s.stopDaemons()
}

// Crash simulates a DLFM failure: daemons die, every in-flight local
// transaction is lost, and the local database restarts from its log. Child
// agents' connections are severed by the RPC layer. After Crash the DLFM is
// running again with only its durable state — prepared transactions are now
// indoubt and wait for the host's resolution daemon (Section 3.3).
func (s *Server) Crash() error {
	s.stopDaemons()
	if err := s.db.Crash(); err != nil {
		return err
	}
	if s.standby.Load() {
		// A crashed standby recovers its database from its own log and
		// stays fenced; its replication client re-syncs it.
		return nil
	}
	if s.cfg.HandCraftStats {
		s.craftStats()
	}
	if err := s.stmts.bindAll(); err != nil {
		return err
	}
	s.startDaemons()
	return nil
}

func (s *Server) now() int64 { return time.Now().UnixNano() }

// txnCounts is a concurrent multiset of transaction ids.
type txnCounts struct {
	mu sync.Mutex
	n  map[int64]int
}

func (c *txnCounts) add(txn int64, d int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.n == nil {
		c.n = make(map[int64]int)
	}
	if c.n[txn] += d; c.n[txn] <= 0 {
		delete(c.n, txn)
	}
}

func (c *txnCounts) has(txn int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n[txn] > 0
}

// bootstrapSchema creates the DLFM metadata tables (Section 3.1) if this is
// a fresh database; after a crash the engine recovers them from its log.
//
// Note the File table carries the delayed-update bookkeeping directly in
// its rows — lnk_txn, unlnk_txn, del_txn — because DLFM "does/can not write
// recovery logs for its own link and unlink file operations" (Section 3.2)
// and must find a transaction's effects through SQL alone. The unique index
// on (name, chkflag) is the race closure of Section 3.2: a linked entry has
// chkflag 0, an unlinked entry has chkflag = its unlink recovery id, so at
// most one linked entry per file can exist while unlink history accumulates.
func (s *Server) bootstrapSchema() error {
	ddl := []string{
		`CREATE TABLE dlfm_file (
			name VARCHAR NOT NULL,
			grpid BIGINT NOT NULL,
			recid BIGINT NOT NULL,
			lnk_txn BIGINT NOT NULL,
			unlnk_txn BIGINT NOT NULL,
			unlnk_time BIGINT NOT NULL,
			state VARCHAR NOT NULL,
			chkflag BIGINT NOT NULL,
			del_txn BIGINT NOT NULL,
			owner VARCHAR NOT NULL
		)`,
		`CREATE UNIQUE INDEX dlfm_file_nc ON dlfm_file (name, chkflag)`,
		`CREATE INDEX dlfm_file_grp ON dlfm_file (grpid)`,
		`CREATE INDEX dlfm_file_ltxn ON dlfm_file (lnk_txn)`,
		`CREATE INDEX dlfm_file_utxn ON dlfm_file (unlnk_txn)`,
		`CREATE INDEX dlfm_file_del ON dlfm_file (del_txn)`,

		`CREATE TABLE dlfm_group (
			grpid BIGINT NOT NULL,
			recovery BIGINT NOT NULL,
			fullctl BIGINT NOT NULL,
			state VARCHAR NOT NULL,
			crt_txn BIGINT NOT NULL,
			del_txn BIGINT NOT NULL,
			expiry BIGINT NOT NULL
		)`,
		`CREATE UNIQUE INDEX dlfm_group_id ON dlfm_group (grpid)`,
		`CREATE INDEX dlfm_group_del ON dlfm_group (del_txn)`,
		`CREATE INDEX dlfm_group_crt ON dlfm_group (crt_txn)`,
		`CREATE INDEX dlfm_group_state ON dlfm_group (state)`,

		`CREATE TABLE dlfm_txn (
			txnid BIGINT NOT NULL,
			state VARCHAR NOT NULL,
			ngroups BIGINT NOT NULL,
			ts BIGINT NOT NULL
		)`,
		`CREATE UNIQUE INDEX dlfm_txn_id ON dlfm_txn (txnid)`,
		`CREATE INDEX dlfm_txn_state ON dlfm_txn (state)`,

		`CREATE TABLE dlfm_archive (
			name VARCHAR NOT NULL,
			recid BIGINT NOT NULL,
			grpid BIGINT NOT NULL,
			txnid BIGINT NOT NULL,
			state VARCHAR NOT NULL,
			prio BIGINT NOT NULL
		)`,
		`CREATE UNIQUE INDEX dlfm_arch_nr ON dlfm_archive (name, recid)`,
		`CREATE INDEX dlfm_arch_txn ON dlfm_archive (txnid)`,
		`CREATE INDEX dlfm_arch_state ON dlfm_archive (state)`,

		`CREATE TABLE dlfm_backup (
			backupid BIGINT NOT NULL,
			recid BIGINT NOT NULL,
			ts BIGINT NOT NULL
		)`,
		`CREATE UNIQUE INDEX dlfm_backup_id ON dlfm_backup (backupid)`,

		`CREATE TABLE dlfm_recon (
			name VARCHAR NOT NULL,
			recid BIGINT NOT NULL
		)`,
		`CREATE UNIQUE INDEX dlfm_recon_name ON dlfm_recon (name)`,
	}
	if _, err := s.db.Catalog().Table("dlfm_file"); err == nil {
		return nil // recovered from the log; schema already present
	}
	c := s.db.Connect()
	for _, stmt := range ddl {
		if _, err := c.Exec(stmt); err != nil {
			return fmt.Errorf("core: bootstrap %q: %w", stmt[:30], err)
		}
	}
	return nil
}

// craftStats installs the hand-crafted statistics: every metadata table is
// declared huge with near-unique indexed columns, so the optimizer always
// produces index plans for DLFM's packages regardless of actual table size
// ("the statistics in the catalog are manually set before DLFM's SQL
// programs are compiled and bound", Section 3.2.1).
func (s *Server) craftStats() {
	const big = 10_000_000
	tables := map[string]map[string]int64{
		"dlfm_file": {
			"name": big, "chkflag": 1000, "grpid": 100_000,
			"lnk_txn": big, "unlnk_txn": big, "del_txn": big,
		},
		"dlfm_group":   {"grpid": big, "crt_txn": big, "del_txn": big, "state": 4},
		"dlfm_txn":     {"txnid": big, "state": 4},
		"dlfm_archive": {"name": big, "recid": big, "txnid": big, "state": 4},
		"dlfm_backup":  {"backupid": big},
		"dlfm_recon":   {"name": big},
	}
	for table, cols := range tables {
		// Errors (table missing) cannot happen after bootstrap; ignore
		// defensively rather than fail startup.
		_ = s.db.SetStats(table, big, cols)
	}
}

// CheckStatsGuard is the paper's Section 4 guard: if the catalog statistics
// changed (for example a user ran RUNSTATS and overwrote the crafted
// numbers), re-install the crafted statistics and re-bind every package.
// The Garbage Collector daemon calls it each cycle; tests and benchmarks
// call it directly. It reports whether a repair was performed.
func (s *Server) CheckStatsGuard() bool {
	if !s.cfg.StatsGuard || !s.cfg.HandCraftStats {
		return false
	}
	repaired := false
	for _, table := range []string{"dlfm_file", "dlfm_group", "dlfm_txn", "dlfm_archive", "dlfm_backup", "dlfm_recon"} {
		st, err := s.db.Catalog().StatsOf(table)
		if err != nil {
			continue
		}
		if !st.HandCrafted {
			repaired = true
		}
	}
	if repaired {
		s.craftStats()
		s.stats.StatsRepairs.Add(1)
	}
	if err := s.stmts.rebindStale(); err == nil && repaired {
		return true
	}
	return repaired
}
