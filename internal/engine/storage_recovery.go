package engine

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Storage-backed recovery and checkpointing. With Config.DataDir set, the
// heap and index pages survive a restart, so recovery does not rebuild the
// database from the whole log: it loads the table anchors from the last
// checkpoint's meta and replays only the log tail from the checkpoint's
// StartLSN. The checkpoint is *fuzzy* — it runs concurrently with
// transactions, flushing all dirty pages (log first, the WAL rule) and
// recording StartLSN = the first LSN of the oldest transaction that was
// undecided when it began, so the tail always covers every record recovery
// might need to redo or undo.

// RecoveryStats describes what the most recent recovery pass did.
type RecoveryStats struct {
	// StartLSN is the LSN replay began at (0 = beginning of log).
	StartLSN int64
	// Records is how many log records the pass read.
	Records int
	// Replayed is how many DDL and data records were re-applied.
	Replayed int
	// Undone is how many data records were reverted for transactions that
	// did not survive the crash (aborted or unfinished).
	Undone int
	// Indoubt is how many prepared transactions were restored.
	Indoubt int
}

// LastRecovery reports what the most recent Open/Crash recovery pass did.
func (db *DB) LastRecovery() RecoveryStats {
	db.latch.Lock()
	defer db.latch.Unlock()
	return db.lastRecovery
}

// recoverStorage rebuilds runtime state from the page store plus the log
// tail:
//
//  1. Attach every table and index at the anchors the last checkpoint
//     recorded (pages already hold their contents).
//  2. Replay the tail from StartLSN in order. Data records are re-applied
//     idempotently — pages may already reflect any prefix of them, and
//     sequential replay of the full tail converges to the pre-crash state.
//     An abort record triggers inline undo of that transaction's tail
//     records (its pre-tail records were undone before the checkpoint).
//  3. Transactions with no decision are undone (presumed abort), except
//     prepared ones, which are restored indoubt with their locks.
//
// CREATE INDEX records in the tail are deferred to the end: their backfill
// then runs against the converged heap, which is the only state where a
// unique index's original success guarantees the rebuild succeeds too.
func (db *DB) recoverStorage() error {
	meta := db.store.Meta()
	recs, err := db.log.ReadFrom(meta.StartLSN)
	if err != nil {
		return err
	}

	db.latch.Lock()
	defer db.latch.Unlock()

	for _, tm := range meta.Tables {
		if err := db.attachTableLocked(tm); err != nil {
			return err
		}
	}
	if meta.NextTxn > db.nextTxn.Load() {
		db.nextTxn.Store(meta.NextTxn)
	}

	stats := RecoveryStats{StartLSN: meta.StartLSN, Records: len(recs)}
	active := make(map[int64][]wal.Record)
	prepared := make(map[int64]bool)
	var deferredIx []wal.Record
	maxTxn := int64(0)
	for _, r := range recs {
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
		switch r.Type {
		case wal.RecCreateIndex:
			// Deferred: see above. A later DROP TABLE cancels it.
			deferredIx = append(deferredIx, r)
		case wal.RecCreateTable:
			if err := db.replayDDLIdempotentLocked(r); err != nil {
				return err
			}
			stats.Replayed++
		case wal.RecDropTable:
			if err := db.replayDDLIdempotentLocked(r); err != nil {
				return err
			}
			deferredIx = dropDeferredFor(deferredIx, r)
			stats.Replayed++
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			db.applyRedoTailLocked(r)
			active[r.Txn] = append(active[r.Txn], r)
			stats.Replayed++
		case wal.RecPrepare:
			prepared[r.Txn] = true
		case wal.RecCommit:
			delete(active, r.Txn)
			delete(prepared, r.Txn)
		case wal.RecAbort:
			stats.Undone += db.undoRecordsLocked(active[r.Txn])
			delete(active, r.Txn)
			delete(prepared, r.Txn)
		}
	}

	// Decide survivors: prepared transactions come back indoubt, everything
	// else undecided is presumed aborted and undone. The log stops tracking
	// the undone ones (their space is reclaimable; without this a dead
	// transaction would pin the checkpoint LSN forever after an in-process
	// crash, where the Log object survives).
	undecided := make([]int64, 0, len(active))
	for txnID := range active {
		undecided = append(undecided, txnID)
	}
	sort.Slice(undecided, func(i, j int) bool { return undecided[i] < undecided[j] })
	for _, txnID := range undecided {
		if prepared[txnID] {
			continue
		}
		stats.Undone += db.undoRecordsLocked(active[txnID])
		db.log.ForgetTxn(txnID)
	}

	for _, r := range deferredIx {
		if err := db.replayDDLIdempotentLocked(r); err != nil {
			return err
		}
		stats.Replayed++
	}

	for _, txnID := range undecided {
		if !prepared[txnID] {
			continue
		}
		db.restoreIndoubtLocked(txnID, recs)
		stats.Indoubt++
		db.tracer.Emitf(0, "engine", "recovery_indoubt", "%s restored prepared txn %d", db.cfg.Name, txnID)
	}

	if maxTxn >= db.nextTxn.Load() {
		db.nextTxn.Store(maxTxn)
	}
	db.lastRecovery = stats
	db.tracer.Emitf(0, "engine", "recovery_done",
		"%s: storage tail from LSN %d, %d records, %d replayed, %d undone, %d indoubt",
		db.cfg.Name, meta.StartLSN, len(recs), stats.Replayed, stats.Undone, stats.Indoubt)
	return nil
}

// attachTableLocked rebuilds one table's runtime state from its checkpoint
// anchors: catalog entries from the recorded DDL, heap and trees re-attached
// at their page heads. Caller holds the latch.
func (db *DB) attachTableLocked(tm storage.TableMeta) error {
	stmt, err := sql.Parse(tm.DDL)
	if err != nil {
		return fmt.Errorf("engine: recovery: bad checkpoint table DDL %q: %w", tm.DDL, err)
	}
	ct, ok := stmt.(sql.CreateTable)
	if !ok {
		return fmt.Errorf("engine: recovery: checkpoint DDL is not CREATE TABLE: %q", tm.DDL)
	}
	schema, err := db.cat.CreateTable(ct.Name, astColumns(ct))
	if err != nil {
		return err
	}
	h, err := db.store.AttachHeap(tm.HeapHead)
	if err != nil {
		return err
	}
	tbl := &table{
		schema:  schema,
		heap:    &storeHeap{h: h, lsn: db.lastLSN},
		nextRID: tm.NextRID,
	}
	for _, im := range tm.Indexes {
		ixStmt, err := sql.Parse(im.DDL)
		if err != nil {
			return fmt.Errorf("engine: recovery: bad checkpoint index DDL %q: %w", im.DDL, err)
		}
		ci, ok := ixStmt.(sql.CreateIndex)
		if !ok {
			return fmt.Errorf("engine: recovery: checkpoint DDL is not CREATE INDEX: %q", im.DDL)
		}
		ixSchema, err := db.cat.CreateIndex(ci.Name, ci.Table, ci.Cols, ci.Unique)
		if err != nil {
			return err
		}
		tr, err := db.store.AttachTree(im.Root)
		if err != nil {
			return err
		}
		tbl.indexes = append(tbl.indexes, &index{schema: ixSchema, tree: &storeIndex{t: tr, lsn: db.lastLSN}})
	}
	db.tables[ct.Name] = tbl
	return nil
}

// replayDDLIdempotentLocked replays a DDL record tolerating state the
// checkpoint already captured: the tail can hold DDL both before and after
// the checkpoint moment, so a CREATE of an existing object or a DROP of a
// missing one is a no-op rather than an error.
func (db *DB) replayDDLIdempotentLocked(r wal.Record) error {
	stmt, err := sql.Parse(r.Table)
	if err != nil {
		return fmt.Errorf("engine: recovery: bad DDL record %q: %w", r.Table, err)
	}
	switch s := stmt.(type) {
	case sql.CreateTable:
		if db.tables[s.Name] != nil {
			return nil
		}
	case sql.CreateIndex:
		t := db.tables[s.Table]
		if t == nil {
			return nil // table dropped later in the tail
		}
		for _, ix := range t.indexes {
			if ix.schema.Name == s.Name {
				return nil
			}
		}
	case sql.DropTable:
		if db.tables[s.Name] == nil {
			return nil
		}
	}
	return db.replayDDLLocked(r)
}

// dropDeferredFor removes queued CREATE INDEX records targeting the table a
// DROP TABLE record names.
func dropDeferredFor(deferred []wal.Record, drop wal.Record) []wal.Record {
	name := strings.TrimSpace(strings.TrimPrefix(drop.Table, "DROP TABLE"))
	out := deferred[:0]
	for _, r := range deferred {
		if stmt, err := sql.Parse(r.Table); err == nil {
			if ci, ok := stmt.(sql.CreateIndex); ok && ci.Table == name {
				continue
			}
		}
		out = append(out, r)
	}
	return out
}

// applyRedoTailLocked re-applies one data record idempotently during tail
// replay. Unlike the from-scratch path it tolerates a missing table on every
// record type (the table is dropped later in the tail).
func (db *DB) applyRedoTailLocked(r wal.Record) {
	tbl := db.tables[r.Table]
	if tbl == nil {
		return
	}
	switch r.Type {
	case wal.RecInsert:
		tbl.heap.Put(r.RID, r.After)
		for _, ix := range tbl.indexes {
			ix.tree.Insert(ix.keyOf(r.After), r.RID)
		}
	case wal.RecDelete:
		tbl.heap.Delete(r.RID)
		for _, ix := range tbl.indexes {
			ix.tree.Delete(ix.keyOf(r.Before), r.RID)
		}
	case wal.RecUpdate:
		tbl.heap.Put(r.RID, r.After)
		for _, ix := range tbl.indexes {
			ix.tree.Delete(ix.keyOf(r.Before), r.RID)
			ix.tree.Insert(ix.keyOf(r.After), r.RID)
		}
	}
	if r.RID >= tbl.nextRID {
		tbl.nextRID = r.RID + 1
	}
}

// undoRecordsLocked reverts a transaction's replayed records in reverse
// order and reports how many it touched. Caller holds the latch.
func (db *DB) undoRecordsLocked(recs []wal.Record) int {
	for i := len(recs) - 1; i >= 0; i-- {
		r := recs[i]
		tbl := db.tables[r.Table]
		if tbl == nil {
			continue
		}
		switch r.Type {
		case wal.RecInsert:
			tbl.heap.Delete(r.RID)
			for _, ix := range tbl.indexes {
				ix.tree.Delete(ix.keyOf(r.After), r.RID)
			}
		case wal.RecDelete:
			tbl.heap.Put(r.RID, r.Before)
			for _, ix := range tbl.indexes {
				ix.tree.Insert(ix.keyOf(r.Before), r.RID)
			}
		case wal.RecUpdate:
			tbl.heap.Put(r.RID, r.Before)
			for _, ix := range tbl.indexes {
				ix.tree.Delete(ix.keyOf(r.After), r.RID)
				ix.tree.Insert(ix.keyOf(r.Before), r.RID)
			}
		}
	}
	return len(recs)
}

// checkpointStorage runs one fuzzy checkpoint: StartLSN is computed from
// the log's oldest undecided transaction (and any restored indoubt ones the
// reopened log no longer tracks) BEFORE the latch is taken, so every record
// a post-checkpoint recovery could need sits at or above it; then all dirty
// pages are flushed (log first) and the meta — table anchors plus that
// StartLSN — replaces the previous durable set atomically.
func (db *DB) checkpointStorage() error {
	db.ckptMu.Lock()
	defer db.ckptMu.Unlock()
	if db.store == nil {
		return fmt.Errorf("engine: storage checkpoint requires DataDir")
	}
	startLSN := db.log.CheckpointLSN()

	db.latch.Lock()
	defer db.latch.Unlock()
	for _, t := range db.indoubt {
		if t.firstLSN > 0 && t.firstLSN < startLSN {
			startLSN = t.firstLSN
		}
	}
	meta := storage.Meta{StartLSN: startLSN, NextTxn: db.nextTxn.Load()}
	names := make([]string, 0, len(db.tables))
	for name := range db.tables {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		tbl := db.tables[name]
		tm := storage.TableMeta{
			DDL:      tableDDL(name, tbl),
			HeapHead: tbl.heap.(*storeHeap).h.Head(),
			NextRID:  tbl.nextRID,
		}
		for _, ix := range tbl.indexes {
			tm.Indexes = append(tm.Indexes, storage.IndexMeta{
				DDL:  indexDDL(name, ix),
				Root: ix.tree.(*storeIndex).t.Root(),
			})
		}
		meta.Tables = append(meta.Tables, tm)
	}
	if err := db.store.Checkpoint(meta); err != nil {
		return err
	}
	db.tracer.Emitf(0, "engine", "checkpoint", "%s fuzzy checkpoint at LSN %d (%d tables)",
		db.cfg.Name, startLSN, len(meta.Tables))
	return nil
}

// checkpointDaemon periodically checkpoints until stop closes.
func (db *DB) checkpointDaemon(every time.Duration, stop chan struct{}) {
	tick := time.NewTicker(every)
	defer tick.Stop()
	for {
		select {
		case <-stop:
			return
		case <-tick.C:
			if err := db.checkpointStorage(); err != nil {
				db.tracer.Emitf(0, "engine", "checkpoint_error", "%s: %v", db.cfg.Name, err)
			}
		}
	}
}

// tableDDL renders a table's canonical CREATE TABLE text (the same form the
// log and snapshot use).
func tableDDL(name string, tbl *table) string {
	ddl := "CREATE TABLE " + name + " ("
	for i, col := range tbl.schema.Cols {
		if i > 0 {
			ddl += ", "
		}
		ddl += col.Name + " " + typeName(col.Type)
		if col.NotNull {
			ddl += " NOT NULL"
		}
	}
	return ddl + ")"
}

// indexDDL renders an index's canonical CREATE INDEX text.
func indexDDL(tableName string, ix *index) string {
	stmt := "CREATE "
	if ix.schema.Unique {
		stmt += "UNIQUE "
	}
	return stmt + "INDEX " + ix.schema.Name + " ON " + tableName +
		" (" + strings.Join(ix.schema.Cols, ", ") + ")"
}
