package engine

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/catalog"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
)

// Config carries the knobs a DBA would set on the local database. Every
// knob corresponds to a tuning decision discussed in the paper.
type Config struct {
	// Name identifies the database in diagnostics.
	Name string
	// LogPath is the write-ahead log file; empty means an in-memory log
	// (still recoverable within the process, used for crash simulation).
	// Without DataDir, Open rebuilds the tables from the whole log.
	LogPath string
	// LogCapacity is the circular-log capacity in bytes; 0 = unlimited.
	// Long transactions that outgrow it fail with ErrLogFull.
	LogCapacity int64
	// LockTimeout bounds lock waits; the paper settled on 60 s.
	LockTimeout time.Duration
	// DetectDeadlocks enables the local deadlock detector.
	DetectDeadlocks bool
	// NextKeyLocking enables next-key locks on index delete/insert. DB2
	// has it on by default; DLFM turns it off to stop multi-index
	// deadlocks (Sections 3.2.1, 3.4, 4).
	NextKeyLocking bool
	// HoldReadLocks holds S locks to commit (repeatable read). Off =
	// cursor stability, which is all DLFM needs.
	HoldReadLocks bool
	// EscalationThreshold is the per-transaction, per-table row-lock count
	// that triggers lock escalation; 0 disables it.
	EscalationThreshold int
	// LockListSize caps total held locks before forced escalation; 0 =
	// unlimited.
	LockListSize int
	// LockShards partitions the lock manager by table-name hash; 0 uses
	// the lock package default (16), 1 restores the single global mutex.
	LockShards int
	// SyncCommit fsyncs the log on every commit.
	SyncCommit bool
	// GroupCommit batches concurrent commit fsyncs into one shared log
	// write (WAL group commit). Only meaningful with SyncCommit; commits
	// then ride SyncBatched and the wal_group_commit_* metrics light up.
	GroupCommit bool
	// DataDir, when non-empty, backs table heaps and indexes with the
	// page-based storage engine (internal/storage): 4 KB slotted pages
	// behind a buffer pool, shadow-paged checkpoints, and restart that
	// replays only the log tail past the last checkpoint. Empty keeps
	// everything in memory (tests, crash simulation, standbys).
	DataDir string
	// PoolPages caps the buffer pool at that many 4 KB frames (minimum
	// 16; 0 picks the 1024-frame default). Tables larger than the pool
	// spill to disk page by page.
	PoolPages int
	// CheckpointEvery, with DataDir set, runs a fuzzy checkpoint at that
	// period so restart replay stays bounded; 0 disables the daemon
	// (checkpoints then happen only via explicit Checkpoint calls).
	CheckpointEvery time.Duration
	// WALSyncDelay adds an artificial latency to every log sync of THIS
	// database, modeling a degraded log device on one member of a fleet
	// (fleet experiments inject it into a single DLFM; the process-global
	// wal.append.fsync fault point cannot be scoped that way). Zero is off.
	WALSyncDelay time.Duration
	// Obs, when non-nil, receives the engine's counters and histograms
	// (engine_*, lock_*, wal_* metric names) for /metrics exposition.
	Obs *obs.Registry
	// Tracer, when non-nil, receives lock/WAL spans and recovery marks.
	Tracer *obs.Tracer
	// Flight, when non-nil, records deadlock/timeout victims (wait-for
	// graph + span tree) for post-mortem via /debug/waitgraph.
	Flight *obs.FlightRecorder
}

// DefaultConfig returns the configuration the DLFM installation guide would
// ship: deadlock detection on, 60 s lock timeout, next-key locking ON (the
// DB2 default that DLFM then disables), no escalation, unlimited log.
func DefaultConfig(name string) Config {
	return Config{
		Name:            name,
		LockTimeout:     60 * time.Second,
		DetectDeadlocks: true,
		NextKeyLocking:  true,
	}
}

// Stats counts engine-level events.
type Stats struct {
	Selects    int64
	Inserts    int64
	Updates    int64
	Deletes    int64
	Commits    int64
	Rollbacks  int64
	TableScans int64
	IndexScans int64
	RowsRead   int64
	Rebinds    int64
	Lock       lock.Stats
	Log        wal.Stats
}

// index is the runtime state of one index.
type index struct {
	schema *catalog.IndexSchema
	tree   indexStore
}

func (ix *index) keyOf(row value.Row) value.Key {
	k := make(value.Key, len(ix.schema.ColIdxs))
	for i, pos := range ix.schema.ColIdxs {
		k[i] = row[pos]
	}
	return k
}

// table is the runtime state of one table: the heap and its indexes.
type table struct {
	schema  *catalog.TableSchema
	heap    rowStore
	indexes []*index
	nextRID int64
}

// DB is one database instance.
type DB struct {
	cfg Config
	cat *catalog.Catalog
	lm  *lock.Manager
	log *wal.Log

	// latch protects tables and their heaps/indexes. It is never held
	// while waiting for a transaction lock.
	latch  sync.Mutex
	tables map[string]*table
	// indoubt holds transactions restored in the prepared state by crash
	// recovery, awaiting their coordinator's decision.
	indoubt map[int64]*txn

	// store is the page-based backing when cfg.DataDir is set; nil keeps
	// heaps and indexes purely in memory.
	store *storage.Store
	// ckptMu serializes fuzzy checkpoints against Crash: a checkpoint
	// caught mid-flight by a crash would otherwise publish anchors for a
	// page set the crash is reverting.
	ckptMu   sync.Mutex
	ckptStop chan struct{}
	// lastRecovery describes what the most recent recover pass did.
	lastRecovery RecoveryStats

	nextTxn atomic.Int64

	tracer *obs.Tracer

	selects    obs.Counter
	inserts    obs.Counter
	updates    obs.Counter
	deletes    obs.Counter
	commits    obs.Counter
	rollbacks  obs.Counter
	tableScans obs.Counter
	indexScans obs.Counter
	rowsRead   obs.Counter
	rebinds    obs.Counter
}

// Open creates or reopens the database described by cfg, replaying the
// write-ahead log if it holds records.
func Open(cfg Config) (*DB, error) {
	if cfg.DataDir != "" {
		// The log commonly lives inside the data directory; make sure it
		// exists before the log opens.
		if err := os.MkdirAll(cfg.DataDir, 0o755); err != nil {
			return nil, fmt.Errorf("engine: data dir: %w", err)
		}
	}
	log, err := wal.Open(cfg.LogPath, cfg.LogCapacity)
	if err != nil {
		return nil, err
	}
	db := &DB{
		cfg:     cfg,
		cat:     catalog.New(),
		log:     log,
		tables:  make(map[string]*table),
		indoubt: make(map[int64]*txn),
	}
	db.tracer = cfg.Tracer
	db.lm = lock.NewManager(db.lockConfig())
	if cfg.WALSyncDelay > 0 {
		db.log.SetSyncDelay(cfg.WALSyncDelay)
	}
	db.log.Instrument(cfg.Obs, cfg.Tracer)
	db.registerMetrics(cfg.Obs)
	if cfg.DataDir != "" {
		st, err := storage.Open(cfg.DataDir, cfg.PoolPages, db.log.SyncIfDirty)
		if err != nil {
			log.Close()
			return nil, err
		}
		if cfg.Obs != nil {
			st.Instrument(cfg.Obs)
		}
		db.store = st
	}
	if cfg.GroupCommit {
		db.log.SetGroupCommit(true)
	}
	if err := db.recover(); err != nil {
		db.closeStores()
		return nil, err
	}
	if db.store != nil && cfg.CheckpointEvery > 0 {
		db.ckptStop = make(chan struct{})
		go db.checkpointDaemon(cfg.CheckpointEvery, db.ckptStop)
	}
	return db, nil
}

func (db *DB) closeStores() {
	if db.store != nil {
		db.store.Close()
	}
	db.log.Close()
}

func (db *DB) lockConfig() lock.Config {
	return lock.Config{
		Timeout:             db.cfg.LockTimeout,
		EscalationThreshold: db.cfg.EscalationThreshold,
		LockListSize:        db.cfg.LockListSize,
		DetectDeadlocks:     db.cfg.DetectDeadlocks,
		Shards:              db.cfg.LockShards,
		Obs:                 db.cfg.Obs,
		Tracer:              db.cfg.Tracer,
		Flight:              db.cfg.Flight,
	}
}

// registerMetrics exposes the engine's counters on reg so that Stats() and
// /metrics read the same atomics and can never disagree.
func (db *DB) registerMetrics(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("engine_selects_total", &db.selects)
	reg.RegisterCounter("engine_inserts_total", &db.inserts)
	reg.RegisterCounter("engine_updates_total", &db.updates)
	reg.RegisterCounter("engine_deletes_total", &db.deletes)
	reg.RegisterCounter("engine_commits_total", &db.commits)
	reg.RegisterCounter("engine_rollbacks_total", &db.rollbacks)
	reg.RegisterCounter("engine_table_scans_total", &db.tableScans)
	reg.RegisterCounter("engine_index_scans_total", &db.indexScans)
	reg.RegisterCounter("engine_rows_read_total", &db.rowsRead)
	reg.RegisterCounter("engine_rebinds_total", &db.rebinds)
	// Lock pressure: held locks as a fraction of the lock-list cap (0 when
	// uncapped) — the same signal host admission control sheds on, exposed
	// per member so the fleet health monitor can compare members.
	reg.GaugeFunc("engine_lock_pressure", func() float64 {
		lm := db.LockManager()
		limit := lm.LockListLimit()
		if limit <= 0 {
			return 0
		}
		return float64(lm.HeldTotal()) / float64(limit)
	})
}

// Close releases the log file and, when storage-backed, the page file.
// Outstanding transactions are abandoned (as in a crash); recovery discards
// them on the next Open. No implicit checkpoint: restart replays the tail.
func (db *DB) Close() error {
	if db.ckptStop != nil {
		close(db.ckptStop)
		db.ckptStop = nil
	}
	db.log.SetGroupCommit(false)
	var err error
	if db.store != nil {
		err = db.store.Close()
	}
	if e := db.log.Close(); err == nil {
		err = e
	}
	return err
}

// Crash simulates a failure and restart: all in-memory state (heaps,
// indexes, catalog, locks, live transactions) is discarded and rebuilt from
// the write-ahead log, exactly as a restart after a power loss would.
func (db *DB) Crash() error {
	// Holding ckptMu makes a concurrent fuzzy checkpoint either complete
	// before the crash (its anchors survive) or start after recovery.
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	db.latch.Lock()
	db.tables = make(map[string]*table)
	db.cat = catalog.New()
	db.indoubt = make(map[int64]*txn)
	// NewManager re-registers the lock_* metrics; the registry's replace
	// semantics make the fresh manager's counters the live ones. The swap
	// happens under the latch so concurrent diagnostic readers (admin
	// wait-graph, stats scrapers) see either the old or the new manager,
	// never a torn pointer.
	db.lm = lock.NewManager(db.lockConfig())
	db.latch.Unlock()
	if db.store != nil {
		// Drop pool frames and the working page mapping; the page file
		// reverts to the last durable checkpoint, the WAL survives.
		db.store.Crash()
	}
	db.tracer.Emit(0, "engine", "crash", db.cfg.Name)
	return db.recover()
}

// Stats returns a snapshot of cumulative engine statistics.
func (db *DB) Stats() Stats {
	lm := db.LockManager()
	return Stats{
		Selects:    db.selects.Load(),
		Inserts:    db.inserts.Load(),
		Updates:    db.updates.Load(),
		Deletes:    db.deletes.Load(),
		Commits:    db.commits.Load(),
		Rollbacks:  db.rollbacks.Load(),
		TableScans: db.tableScans.Load(),
		IndexScans: db.indexScans.Load(),
		RowsRead:   db.rowsRead.Load(),
		Rebinds:    db.rebinds.Load(),
		Lock:       lm.Stats(),
		Log:        db.log.Stats(),
	}
}

// Catalog exposes the statistics facilities (SetStats / StatsVersion) to
// administrative utilities; schema changes must go through SQL.
func (db *DB) Catalog() *catalog.Catalog { return db.cat }

// LockManager exposes lock diagnostics to tests and the benchmark harness.
// Crash replaces the manager, so the pointer is read under the latch: a
// caller racing a crash gets either the old or the new manager, both of
// which are internally synchronized.
func (db *DB) LockManager() *lock.Manager {
	db.latch.Lock()
	lm := db.lm
	db.latch.Unlock()
	return lm
}

// SetLockTimeout adjusts the lock timeout at runtime (experiment E7 sweeps
// it).
func (db *DB) SetLockTimeout(d time.Duration) {
	db.LockManager().SetTimeout(d)
}

// table looks up a runtime table. Caller must hold the latch.
func (db *DB) tableLocked(name string) (*table, error) {
	t := db.tables[name]
	if t == nil {
		return nil, fmt.Errorf("engine: table %q does not exist", name)
	}
	return t, nil
}

// createTableLocked builds runtime state for a new table. Caller holds the
// latch.
func (db *DB) createTableLocked(name string, cols []catalog.Column) error {
	schema, err := db.cat.CreateTable(name, cols)
	if err != nil {
		return err
	}
	db.tables[name] = &table{
		schema:  schema,
		heap:    db.newHeapLocked(),
		nextRID: 1,
	}
	return nil
}

// createIndexLocked builds runtime state for a new index and backfills it
// from the heap. Caller holds the latch.
func (db *DB) createIndexLocked(name, tableName string, cols []string, unique bool) error {
	t, err := db.tableLocked(tableName)
	if err != nil {
		return err
	}
	ixSchema, err := db.cat.CreateIndex(name, tableName, cols, unique)
	if err != nil {
		return err
	}
	ix := &index{schema: ixSchema, tree: db.newIndexLocked()}
	var dupKey value.Key
	t.heap.Scan(func(rid int64, row value.Row) bool {
		k := ix.keyOf(row)
		if unique {
			if dup := ix.lookupUniqueLocked(k); dup != 0 {
				dupKey = k
				return false
			}
		}
		ix.tree.Insert(k, rid)
		return true
	})
	if dupKey != nil {
		// Roll the catalog entry back.
		t2, _ := db.cat.Table(tableName)
		t2.Indexes = t2.Indexes[:len(t2.Indexes)-1]
		return fmt.Errorf("%w (index %s, key %s)", ErrDuplicate, name, dupKey)
	}
	t.indexes = append(t.indexes, ix)
	return nil
}

// lookupUniqueLocked returns the rid of the entry with exactly key k, or 0.
func (ix *index) lookupUniqueLocked(k value.Key) int64 {
	var found int64
	ix.tree.AscendGreaterOrEqual(k, func(ek value.Key, rid int64) bool {
		if value.CompareKeys(ek, k) == 0 {
			found = rid
		}
		return false
	})
	return found
}
