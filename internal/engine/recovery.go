package engine

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/wal"
)

// Restart has one path whatever the backing. A page-backed database
// (Config.DataDir) attaches its tables at the anchors of the last fuzzy
// checkpoint and replays the log from the checkpoint's StartLSN; an
// in-memory one attaches nothing and replays from LSN 0. The replay repeats
// history: every record is redone in log order, an abort record undoes its
// transaction on the spot, and at the end the transactions with no decision
// are undone (presumed abort), except prepared ones, which come back indoubt
// with their locks.

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

// recover rebuilds runtime state from the checkpoint (if any) and the log.
//
// Data records are redone idempotently: attached pages may already hold any
// prefix of the tail. A CREATE INDEX on an attached table waits until the
// heap has converged, because the pages may be ahead of the point the index
// was created at; on any other table the index is built in log order, which
// is exact since such a table started empty inside the replayed range.
func (db *DB) recover() error {
	var meta storage.Meta
	if db.store != nil {
		meta = db.store.Meta()
	}
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
	attached := make(map[string]bool, len(db.tables))
	for name := range db.tables {
		attached[name] = true
	}

	stats := RecoveryStats{StartLSN: meta.StartLSN, Records: len(recs)}
	// first maps each undecided transaction to the index of its first data
	// or prepare record in recs; undo walks back from there.
	first := make(map[int64]int)
	prepared := make(map[int64]bool)
	var deferred []sql.CreateIndex
	maxTxn := meta.NextTxn
	for i, r := range recs {
		maxTxn = max(maxTxn, r.Txn)
		switch r.Type {
		case wal.RecCreateTable, wal.RecCreateIndex, wal.RecDropTable:
			stmt, err := sql.Parse(r.Table)
			if err != nil {
				return fmt.Errorf("engine: recovery: bad DDL record %q: %w", r.Table, err)
			}
			switch s := stmt.(type) {
			case sql.CreateIndex:
				if attached[s.Table] {
					deferred = append(deferred, s)
					continue
				}
			case sql.DropTable:
				delete(attached, s.Name)
				deferred = slices.DeleteFunc(deferred, func(ci sql.CreateIndex) bool { return ci.Table == s.Name })
			}
			if err := db.replayDDLLocked(stmt); err != nil {
				return err
			}
			stats.Replayed++
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate, wal.RecPrepare:
			if _, ok := first[r.Txn]; !ok {
				first[r.Txn] = i
			}
			if r.Type == wal.RecPrepare {
				prepared[r.Txn] = true
			} else {
				db.redoLocked(r) // false: the table is dropped later in the tail
				stats.Replayed++
			}
		case wal.RecCommit, wal.RecAbort:
			if f, ok := first[r.Txn]; ok && r.Type == wal.RecAbort {
				stats.Undone += db.undoBackLocked(recs[f:i], r.Txn)
			}
			delete(first, r.Txn)
			delete(prepared, r.Txn)
		}
	}

	undecided := make([]int64, 0, len(first))
	for txnID := range first {
		undecided = append(undecided, txnID)
	}
	sort.Slice(undecided, func(i, j int) bool { return undecided[i] < undecided[j] })
	for _, txnID := range undecided {
		if prepared[txnID] {
			continue
		}
		stats.Undone += db.undoBackLocked(recs[first[txnID]:], txnID)
		// The abort record ends the transaction at this point of the log: a
		// later restart undoes it here, before what commits after it.
		if _, err := db.log.Append(wal.Record{Txn: txnID, Type: wal.RecAbort}); err != nil {
			return err
		}
	}
	for _, ci := range deferred {
		if err := db.replayDDLLocked(ci); err != nil {
			return err
		}
		stats.Replayed++
	}
	for _, txnID := range undecided {
		if prepared[txnID] {
			db.restoreIndoubtLocked(txnID, recs[first[txnID]:])
			stats.Indoubt++
			db.tracer.Emitf(0, "engine", "recovery_indoubt", "%s restored prepared txn %d", db.cfg.Name, txnID)
		}
	}

	db.bumpTxnID(maxTxn)
	db.lastRecovery = stats
	db.tracer.Emitf(0, "engine", "recovery_done", "%s: from LSN %d, %d records, %d replayed, %d undone, %d indoubt",
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

// replayDDLLocked re-executes a logged DDL statement. The state may already
// reflect it — a checkpoint's attached tables, or a table dropped later in
// the tail — so a CREATE of an existing object or a DROP of a missing one
// is a no-op. Caller holds the latch.
func (db *DB) replayDDLLocked(stmt sql.Statement) error {
	switch s := stmt.(type) {
	case sql.CreateTable:
		if db.tables[s.Name] != nil {
			return nil
		}
		return db.createTableLocked(s.Name, astColumns(s))
	case sql.CreateIndex:
		t := db.tables[s.Table]
		if t == nil || slices.ContainsFunc(t.indexes, func(ix *index) bool { return ix.schema.Name == s.Name }) {
			return nil
		}
		return db.createIndexLocked(s.Name, s.Table, s.Cols, s.Unique)
	case sql.DropTable:
		if db.tables[s.Name] == nil {
			return nil
		}
		if err := db.cat.DropTable(s.Name); err != nil {
			return err
		}
		delete(db.tables, s.Name)
		return nil
	default:
		return fmt.Errorf("engine: recovery: unexpected DDL statement %T", stmt)
	}
}

// redoLocked re-applies one data record and reports whether its table
// exists. Redo is idempotent, so a page that already holds the record's
// effect is left as it is. Caller holds the latch.
func (db *DB) redoLocked(r wal.Record) bool {
	tbl := db.tables[r.Table]
	if tbl == nil {
		return false
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
	return true
}

// undoBackLocked reverts txnID's data records among recs, newest first, and
// reports how many it reverted. Caller holds the latch.
func (db *DB) undoBackLocked(recs []wal.Record, txnID int64) int {
	n := 0
	for i := len(recs) - 1; i >= 0; i-- {
		if r := recs[i]; r.Txn == txnID && isData(r.Type) {
			db.undoLocked(r)
			n++
		}
	}
	return n
}

// txnUndo rebuilds txnID's undo list from its log records.
func txnUndo(txnID int64, recs []wal.Record) []wal.Record {
	var undo []wal.Record
	for _, r := range recs {
		if r.Txn == txnID && isData(r.Type) {
			undo = append(undo, r)
		}
	}
	return undo
}

func isData(t wal.RecType) bool {
	return t == wal.RecInsert || t == wal.RecDelete || t == wal.RecUpdate
}

// restoreIndoubtLocked rebuilds a prepared transaction during recovery:
// its effects are already redone into the heap; here the undo list and
// branch name come back from its records (recs starts at its first one) and
// its write locks are re-acquired, so the transaction is exactly as it was
// at the crash. Caller holds the latch; lock acquisition cannot block
// because no other transaction exists during recovery.
func (db *DB) restoreIndoubtLocked(txnID int64, recs []wal.Record) {
	t := &txn{id: txnID, prepared: true, wrote: true, firstLSN: recs[0].LSN, undo: txnUndo(txnID, recs)}
	for _, r := range recs {
		if r.Txn == txnID && r.Type == wal.RecPrepare {
			t.branch = r.Table
		}
	}
	_ = db.lockRecsTargets(txnID, t.undo) // an empty lock manager cannot refuse
	db.indoubt[txnID] = t
}
