// Package hostdb simulates the host database server of the DataLinks
// architecture (Figure 2): a relational database (built on the same
// internal/engine the DLFM uses) extended with the *datalink engine* — the
// component that intercepts SQL touching DATALINK columns, drives the
// DLFM's link/unlink APIs in the same transaction, and coordinates the
// two-phase commit across every DLFM the transaction touched.
//
// It also implements the host-side utilities the paper describes: Backup
// (with the wait-for-archive handshake), Restore to a point in time,
// Reconcile, bulk Load (batched DLFM transactions), DROP TABLE (file-group
// deletion), and the indoubt-resolution daemon that polls DLFMs after a
// failure (Section 3.3).
package hostdb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cluster"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sql"
	"repro/internal/value"
)

// Dialer opens a fresh connection (= DLFM child agent) to a DLFM.
type Dialer func() (*rpc.Client, error)

// Config tunes the host database.
type Config struct {
	// Name identifies the database; DBID seeds recovery-id generation.
	Name string
	DBID int64
	// DB is the host engine configuration.
	DB engine.Config
	// SyncCommit makes the phase-2 commit call to DLFM synchronous. The
	// paper found this mandatory — the asynchronous variant produces the
	// distributed deadlock of Section 4 (experiment E6).
	SyncCommit bool
	// CommitFanout bounds how many per-participant 2PC calls (prepare,
	// phase-2 commit/abort, indoubt resolution) one operation issues
	// concurrently. Zero defaults to 8; 1 restores the fully sequential
	// pipeline.
	CommitFanout int
	// CommitProtocol selects how the commit decision is made durable:
	// "2pc" (default) records it in the host's dl_outcome table, so a
	// coordinator crash between phases leaves participants blocked until
	// the host resolves them; "paxos" replicates the decision across the
	// registered acceptors (Gray & Lamport's Paxos Commit), so any
	// participant can learn the outcome without the coordinator.
	CommitProtocol string
	// TokenSecret signs access tokens for full-access-control files; it is
	// shared with the DLFF on each file server. Empty disables tokens.
	TokenSecret []byte
	// TokenTTL bounds token validity.
	TokenTTL time.Duration
	// LoadBatchN is the DLFM batch-commit interval for the Load utility.
	LoadBatchN int
	// AdmissionLockFrac sheds new transactions while the host engine's
	// held-lock count is at or above this fraction of its LockListSize cap
	// (e.g. 0.8 = shed at 80% full). Zero disables the lock signal; it is
	// also inert when the engine's lock list is uncapped.
	AdmissionLockFrac float64
	// AdmissionWALQueueMax sheds new transactions while the WAL
	// group-commit queue holds at least this many waiting committers. Zero
	// disables the WAL signal. Both signals zero = no admission control.
	AdmissionWALQueueMax int
	// AdmissionMaxDelay lets a new transaction wait this long for the
	// pressure to clear before it is shed — a short arrival-side queue that
	// rides out bursts. Zero sheds immediately.
	AdmissionMaxDelay time.Duration
	// Obs receives the host's counters and histograms (host_* names) plus
	// those of its engine. Nil creates a fresh registry labeled
	// host=<Name>; retrieve it with DB.Obs.
	Obs *obs.Registry
	// Tracer receives host-side spans and marks. Nil creates a fresh
	// one; share one tracer with the DLFMs for a unified timeline.
	Tracer *obs.Tracer
}

// DefaultConfig returns the production host configuration: synchronous
// phase-2 commit, 60 s lock timeout. Next-key locking is off in the host
// engine: DB2's type-2 indexes (standard by V5) avoid the end-of-index
// insert hot-spot that key locking would otherwise create on monotonic
// keys, and the paper's next-key lesson concerns the DLFM's local
// database, not the host.
func DefaultConfig(name string) Config {
	db := engine.DefaultConfig("hostdb-" + name)
	db.NextKeyLocking = false
	// The 2PC commit decision (dl_outcome row) is hardened by the local
	// commit in phase 1; presumed abort only works if that commit is
	// forced before phase 2 starts.
	db.SyncCommit = true
	// Concurrent coordinators share commit fsyncs (WAL group commit).
	db.GroupCommit = true
	return Config{
		Name:        name,
		DBID:        1,
		DB:          db,
		SyncCommit:  true,
		TokenSecret: []byte("datalinks-" + name),
		TokenTTL:    time.Hour,
		LoadBatchN:  100,
	}
}

// Stats counts host-side datalink activity. The counters also back the
// host_* metrics on the obs registry.
type Stats struct {
	Links            obs.Counter
	Unlinks          obs.Counter
	Commits          obs.Counter
	Aborts           obs.Counter
	StmtBackouts     obs.Counter
	IndoubtsResolved obs.Counter
	TokensMinted     obs.Counter
	Failovers        obs.Counter
	ReadOnlyVotes    obs.Counter // participants excluded from phase 2 by a read-only vote
	OnePhaseCommits  obs.Counter // commits delegated to a single participant
	PaxosCommits     obs.Counter // commits decided through the acceptor quorum
	PaxosRecoveries  obs.Counter // outcomes the session had to learn back from acceptors
	IndoubtDropped   obs.Counter // parked indoubt hints dropped at the cap
	AdmissionShed    obs.Counter // new transactions refused with ErrOverload
	AdmissionDelayed obs.Counter // new transactions that waited at admission
}

func (st *Stats) register(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("host_links_total", &st.Links)
	reg.RegisterCounter("host_unlinks_total", &st.Unlinks)
	reg.RegisterCounter("host_commits_total", &st.Commits)
	reg.RegisterCounter("host_aborts_total", &st.Aborts)
	reg.RegisterCounter("host_stmt_backouts_total", &st.StmtBackouts)
	reg.RegisterCounter("host_indoubts_resolved_total", &st.IndoubtsResolved)
	reg.RegisterCounter("host_tokens_minted_total", &st.TokensMinted)
	reg.RegisterCounter("host_failovers_total", &st.Failovers)
	reg.RegisterCounter("host_readonly_votes_total", &st.ReadOnlyVotes)
	reg.RegisterCounter("host_one_phase_commits_total", &st.OnePhaseCommits)
	reg.RegisterCounter("host_paxos_commits_total", &st.PaxosCommits)
	reg.RegisterCounter("host_paxos_recoveries_total", &st.PaxosRecoveries)
	reg.RegisterCounter("host_indoubt_dropped_total", &st.IndoubtDropped)
	reg.RegisterCounter("host_admission_shed_total", &st.AdmissionShed)
	reg.RegisterCounter("host_admission_delayed_total", &st.AdmissionDelayed)
}

// Snapshot is a point-in-time copy of the counters.
type Snapshot struct {
	Links, Unlinks, Commits, Aborts int64
	StmtBackouts, IndoubtsResolved  int64
	TokensMinted, Failovers         int64
	ReadOnlyVotes, OnePhaseCommits  int64
	PaxosCommits, PaxosRecoveries   int64
	IndoubtDropped                  int64
	AdmissionShed, AdmissionDelayed int64
}

// DB is one host database instance.
type DB struct {
	cfg Config
	eng *engine.DB

	mu        sync.Mutex
	dialers   map[string]Dialer
	standbys  map[string]*standbyEntry
	failCount map[string]int
	// acceptors holds the Paxos Commit acceptor endpoints, dialed lazily
	// and shared by every session; order is fixed at registration so
	// learner ballots hit the same quorum shape everywhere.
	acceptors []*acceptorEntry
	// parked holds resolution hints for transactions the commit pipeline
	// could not settle inline; bounded by indoubtCap.
	parked []parkedTxn
	// clusters maps a logical server name to its placement map; URLs
	// naming a cluster route through it instead of the dialer registry.
	clusters map[string]*cluster.Map
	// activeTxns holds every transaction id a live session currently owns.
	// Indoubt resolution must not presume abort for these: a prepared DLFM
	// sub-transaction whose coordinator is alive is not in doubt — the
	// session just has not hardened its decision yet.
	activeTxns map[int64]struct{}

	txnSeq atomic.Int64
	recSeq atomic.Int64

	stats  Stats
	obs    *obs.Registry
	tracer *obs.Tracer
	// commitHist times Session.Commit end to end: both 2PC phases plus the
	// local decision hardening (host_commit_seconds).
	commitHist *obs.Histogram
	// prepFanout counts 2PC fan-out calls currently in flight across all
	// sessions (host_prepare_fanout).
	prepFanout obs.Gauge

	// backups holds the quiesced backup images (the paper's backup files).
	backups map[int64]*backupImage
	bkSeq   atomic.Int64
}

// Open creates or recovers a host database.
func Open(cfg Config) (*DB, error) {
	if cfg.Obs == nil {
		cfg.Obs = obs.New().Label("host", cfg.Name)
	}
	if cfg.Tracer == nil {
		cfg.Tracer = obs.NewTracerCfg(obs.TracerConfig{})
	}
	cfg.DB.Obs = cfg.Obs
	cfg.DB.Tracer = cfg.Tracer
	eng, err := engine.Open(cfg.DB)
	if err != nil {
		return nil, fmt.Errorf("hostdb: open engine: %w", err)
	}
	db := &DB{
		cfg:        cfg,
		eng:        eng,
		obs:        cfg.Obs,
		tracer:     cfg.Tracer,
		commitHist: obs.NewHistogram(),
		dialers:    make(map[string]Dialer),
		standbys:   make(map[string]*standbyEntry),
		clusters:   make(map[string]*cluster.Map),
		failCount:  make(map[string]int),
		activeTxns: make(map[int64]struct{}),
		backups:    make(map[int64]*backupImage),
	}
	db.stats.register(db.obs)
	db.obs.RegisterHistogram("host_commit_seconds", db.commitHist)
	db.obs.GaugeFunc("host_prepare_fanout", func() float64 {
		return float64(db.prepFanout.Load())
	})
	// Admission-pressure gauges: the two signals the controller watches,
	// exported even when admission is off so dashboards can see the margin.
	db.obs.GaugeFunc("host_admission_lock_pressure", func() float64 {
		f, _ := db.admissionPressure()
		return f
	})
	db.obs.GaugeFunc("host_admission_wal_queue", func() float64 {
		_, q := db.admissionPressure()
		return float64(q)
	})
	// The RPC transport's process-wide counters (rpc_inflight,
	// rpc_call_timeouts_total, …) ride on the host registry so they reach
	// /metrics and the BENCH snapshot.
	rpc.Instrument(db.obs)
	now := time.Now().UnixNano()
	db.txnSeq.Store(now)
	db.recSeq.Store(now)
	if err := db.bootstrapSchema(); err != nil {
		eng.Close()
		return nil, err
	}
	return db, nil
}

// Engine exposes the underlying host engine for diagnostics and tests.
func (db *DB) Engine() *engine.DB { return db.eng }

// Obs returns the registry holding the host's metrics.
func (db *DB) Obs() *obs.Registry { return db.obs }

// Tracer returns the tracer recording host-side spans and marks.
func (db *DB) Tracer() *obs.Tracer { return db.tracer }

// Stats returns a snapshot of the counters.
func (db *DB) Stats() Snapshot {
	return Snapshot{
		Links:            db.stats.Links.Load(),
		Unlinks:          db.stats.Unlinks.Load(),
		Commits:          db.stats.Commits.Load(),
		Aborts:           db.stats.Aborts.Load(),
		StmtBackouts:     db.stats.StmtBackouts.Load(),
		IndoubtsResolved: db.stats.IndoubtsResolved.Load(),
		TokensMinted:     db.stats.TokensMinted.Load(),
		Failovers:        db.stats.Failovers.Load(),
		ReadOnlyVotes:    db.stats.ReadOnlyVotes.Load(),
		OnePhaseCommits:  db.stats.OnePhaseCommits.Load(),
		PaxosCommits:     db.stats.PaxosCommits.Load(),
		PaxosRecoveries:  db.stats.PaxosRecoveries.Load(),
		IndoubtDropped:   db.stats.IndoubtDropped.Load(),
		AdmissionShed:    db.stats.AdmissionShed.Load(),
		AdmissionDelayed: db.stats.AdmissionDelayed.Load(),
	}
}

// CommitP99 reports the 99th-percentile Session.Commit latency observed so
// far (the host_commit_seconds histogram), for experiment reporting.
func (db *DB) CommitP99() time.Duration { return db.commitHist.Quantile(0.99) }

// Close releases the host engine.
func (db *DB) Close() error { return db.eng.Close() }

// RegisterDLFM makes the DLFM managing server reachable. Each session
// dials its own connection, becoming a distinct child agent on the DLFM
// side, exactly as each DB2 agent does (Section 3.5).
func (db *DB) RegisterDLFM(server string, dial Dialer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.dialers[server] = dial
}

func (db *DB) dialer(server string) (Dialer, error) {
	db.mu.Lock()
	defer db.mu.Unlock()
	d, exists := db.dialers[server]
	if !exists {
		return nil, fmt.Errorf("hostdb: no DLFM registered for file server %q", server)
	}
	return d, nil
}

// Servers lists the registered file servers.
func (db *DB) Servers() []string {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]string, 0, len(db.dialers))
	for s := range db.dialers {
		out = append(out, s)
	}
	return out
}

// NextTxn mints a host transaction id: monotonically increasing, which the
// paper calls "absolutely essential" (Section 3.3); the nanosecond base
// keeps it monotonic across restarts.
func (db *DB) NextTxn() int64 { return db.txnSeq.Add(1) }

// markActive/unmarkActive bracket a session's ownership of a transaction
// id; txnActive answers whether a live coordinator still owns it.
func (db *DB) markActive(txn int64) {
	db.mu.Lock()
	db.activeTxns[txn] = struct{}{}
	db.mu.Unlock()
}

func (db *DB) unmarkActive(txn int64) {
	db.mu.Lock()
	delete(db.activeTxns, txn)
	db.mu.Unlock()
}

func (db *DB) txnActive(txn int64) bool {
	db.mu.Lock()
	_, active := db.activeTxns[txn]
	db.mu.Unlock()
	return active
}

// NextRecID mints a recovery id (dbid + timestamp in the paper; here a
// monotone counter seeded by the clock, unique across restarts).
func (db *DB) NextRecID() int64 { return db.recSeq.Add(1) }

// Crash simulates a host database failure: the engine restarts from its
// log; every open session is dead. After a crash the caller runs
// ResolveIndoubts (or starts the resolution daemon) to settle DLFM-side
// prepared transactions (Section 3.3).
func (db *DB) Crash() error {
	return db.eng.Crash()
}

// bootstrapSchema creates the datalink engine's own metadata tables: the
// DATALINK column registry, the (group, server) placement map, and the
// transaction-outcome table that implements presumed abort.
func (db *DB) bootstrapSchema() error {
	if _, err := db.eng.Catalog().Table("dl_cols"); err == nil {
		// Recovered from the log. The placement table postdates the base
		// schema, so a database recovered from an older log may lack it.
		if _, err := db.eng.Catalog().Table("dl_placement"); err != nil {
			return db.createPlacementSchema()
		}
		return nil
	}
	c := db.eng.Connect()
	ddl := []string{
		`CREATE TABLE dl_cols (tbl VARCHAR NOT NULL, col VARCHAR NOT NULL, grp BIGINT NOT NULL, recovery BIGINT NOT NULL, fullctl BIGINT NOT NULL)`,
		`CREATE UNIQUE INDEX dl_cols_tc ON dl_cols (tbl, col)`,
		`CREATE INDEX dl_cols_tbl ON dl_cols (tbl)`,
		`CREATE TABLE dl_grpsrv (grp BIGINT NOT NULL, server VARCHAR NOT NULL)`,
		`CREATE UNIQUE INDEX dl_grpsrv_gs ON dl_grpsrv (grp, server)`,
		`CREATE TABLE dl_outcome (txnid BIGINT NOT NULL, outcome VARCHAR NOT NULL)`,
		`CREATE UNIQUE INDEX dl_outcome_id ON dl_outcome (txnid)`,
		`CREATE TABLE dl_xa (host_txn BIGINT NOT NULL, engine_txn BIGINT NOT NULL)`,
		`CREATE UNIQUE INDEX dl_xa_host ON dl_xa (host_txn)`,
		`CREATE TABLE dl_backups (backupid BIGINT NOT NULL, recid BIGINT NOT NULL, ts BIGINT NOT NULL)`,
		`CREATE UNIQUE INDEX dl_backups_id ON dl_backups (backupid)`,
	}
	for _, stmt := range ddl {
		if _, err := c.Exec(stmt); err != nil {
			return fmt.Errorf("hostdb: bootstrap: %w", err)
		}
	}
	// The registry tables are hot under concurrent workloads; craft their
	// statistics the same way DLFM does so lookups use index plans.
	const big = 10_000_000
	db.eng.SetStats("dl_cols", big, map[string]int64{"tbl": big, "col": big})
	db.eng.SetStats("dl_grpsrv", big, map[string]int64{"grp": big, "server": 100})
	db.eng.SetStats("dl_outcome", big, map[string]int64{"txnid": big})
	db.eng.SetStats("dl_xa", big, map[string]int64{"host_txn": big})
	db.eng.SetStats("dl_backups", big, map[string]int64{"backupid": big})
	return db.createPlacementSchema()
}

// createPlacementSchema creates the cluster placement table: one row per
// (cluster, slot) with the table version and ring size denormalized onto
// each row, replaced wholesale on every version bump (rings are small).
func (db *DB) createPlacementSchema() error {
	c := db.eng.Connect()
	ddl := []string{
		`CREATE TABLE dl_placement (cluster VARCHAR NOT NULL, version BIGINT NOT NULL, slots BIGINT NOT NULL, slot BIGINT NOT NULL, owner VARCHAR NOT NULL)`,
		`CREATE UNIQUE INDEX dl_placement_cs ON dl_placement (cluster, slot)`,
	}
	for _, stmt := range ddl {
		if _, err := c.Exec(stmt); err != nil {
			return fmt.Errorf("hostdb: bootstrap: %w", err)
		}
	}
	const big = 10_000_000
	db.eng.SetStats("dl_placement", big, map[string]int64{"cluster": 100, "slot": 10_000})
	return nil
}

// The datalink engine's own statements on the transaction path, parsed once.
// Plans are still chosen at each execution, and the trees are shared
// between sessions: nothing may modify them.
var (
	selDatalinkCols = mustParse(`SELECT col, grp, recovery, fullctl FROM dl_cols WHERE tbl = ?`).(sql.Select)
	selGrpsrv       = mustParse(`SELECT COUNT(*) FROM dl_grpsrv WHERE grp = ? AND server = ?`).(sql.Select)
	insGrpsrv       = mustParse(`INSERT INTO dl_grpsrv (grp, server) VALUES (?, ?)`)
	insOutcome      = mustParse(`INSERT INTO dl_outcome (txnid, outcome) VALUES (?, 'C')`)
	selOutcome      = mustParse(`SELECT outcome FROM dl_outcome WHERE txnid = ?`).(sql.Select)
	insXA           = mustParse(`INSERT INTO dl_xa (host_txn, engine_txn) VALUES (?, ?)`)
)

func mustParse(text string) sql.Statement {
	stmt, err := sql.Parse(text)
	if err != nil {
		panic(err)
	}
	return stmt
}

// groupNoted reports whether dl_grpsrv records that server holds files of
// group grp.
func groupNoted(c *engine.Conn, grp int64, server string) (bool, error) {
	rows, err := c.QueryStmt(selGrpsrv, value.Int(grp), value.Str(server))
	if err != nil {
		return false, err
	}
	return rows[0][0].Int64() > 0, nil
}

// DatalinkCol declares one DATALINK column when creating a table.
type DatalinkCol struct {
	Name string
	// Recovery: DLFM archives the file and restores it in point-in-time
	// recovery ("RECOVERY YES").
	Recovery bool
	// FullControl: reads require a database token ("READ PERMISSION DB").
	FullControl bool
}

// grpSeq assigns file-group ids; groups correspond one-to-one to DATALINK
// columns (Section 3).
var grpSeq atomic.Int64

func init() { grpSeq.Store(time.Now().UnixNano() & 0xFFFFFF) }
