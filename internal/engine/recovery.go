package engine

import (
	"fmt"

	"repro/internal/sql"
	"repro/internal/wal"
)

// recover rebuilds in-memory state from the write-ahead log:
//
//  1. Analysis pass: find the set of committed transactions (a transaction
//     with no commit record lost its effects — presumed abort).
//  2. Redo pass: replay DDL unconditionally (DDL is autocommitted) and data
//     records of committed transactions, in log order.
//
// There is no undo pass because uncommitted changes simply are not
// replayed; the heap starts empty.
func (db *DB) recover() error {
	recs, err := db.log.Records()
	if err != nil {
		return err
	}
	committed := make(map[int64]bool)
	prepared := make(map[int64]bool)
	maxTxn := int64(0)
	for _, r := range recs {
		if r.Txn > maxTxn {
			maxTxn = r.Txn
		}
		switch r.Type {
		case wal.RecCommit:
			committed[r.Txn] = true
			delete(prepared, r.Txn)
		case wal.RecAbort:
			delete(prepared, r.Txn)
		case wal.RecPrepare:
			if !committed[r.Txn] {
				prepared[r.Txn] = true
			}
		}
	}
	// Prepared-but-unresolved transactions are redone like committed ones
	// (their effects must be present, held under their restored locks) and
	// then registered as indoubt.
	replay := func(txn int64) bool { return committed[txn] || prepared[txn] }

	db.latch.Lock()
	defer db.latch.Unlock()
	// A checkpoint snapshot, when present, is the starting state; the log
	// only holds records written after it.
	if _, err := db.loadSnapshotLocked(); err != nil {
		return err
	}
	for _, r := range recs {
		switch r.Type {
		case wal.RecCreateTable, wal.RecCreateIndex, wal.RecDropTable:
			if err := db.applyRedoLocked(r); err != nil {
				return err
			}
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			if !replay(r.Txn) {
				continue
			}
			if err := db.applyRedoLocked(r); err != nil {
				return err
			}
		}
	}
	for txnID := range prepared {
		db.restoreIndoubtLocked(txnID, recs)
		db.tracer.Emitf(0, "engine", "recovery_indoubt", "%s restored prepared txn %d", db.cfg.Name, txnID)
	}
	if maxTxn >= db.nextTxn.Load() {
		db.nextTxn.Store(maxTxn)
	}
	db.lastRecovery = RecoveryStats{Records: len(recs), Replayed: len(recs), Indoubt: len(prepared)}
	db.tracer.Emitf(0, "engine", "recovery_done", "%s: %d records, %d committed, %d indoubt",
		db.cfg.Name, len(recs), len(committed), len(prepared))
	return nil
}

// applyRedoLocked replays one DDL or data record against the in-memory
// state. It is the shared redo primitive of crash recovery and of the
// standby's replicated-record apply path. Caller holds the latch and has
// already decided the record should be applied.
func (db *DB) applyRedoLocked(r wal.Record) error {
	switch r.Type {
	case wal.RecCreateTable, wal.RecCreateIndex, wal.RecDropTable:
		return db.replayDDLLocked(r)
	case wal.RecInsert:
		tbl := db.tables[r.Table]
		if tbl == nil {
			return fmt.Errorf("engine: redo: insert into unknown table %q (LSN %d)", r.Table, r.LSN)
		}
		tbl.heap.Put(r.RID, r.After)
		for _, ix := range tbl.indexes {
			ix.tree.Insert(ix.keyOf(r.After), r.RID)
		}
		if r.RID >= tbl.nextRID {
			tbl.nextRID = r.RID + 1
		}
	case wal.RecDelete:
		tbl := db.tables[r.Table]
		if tbl == nil {
			return nil // table later dropped
		}
		tbl.heap.Delete(r.RID)
		for _, ix := range tbl.indexes {
			ix.tree.Delete(ix.keyOf(r.Before), r.RID)
		}
	case wal.RecUpdate:
		tbl := db.tables[r.Table]
		if tbl == nil {
			return nil
		}
		tbl.heap.Put(r.RID, r.After)
		for _, ix := range tbl.indexes {
			ix.tree.Delete(ix.keyOf(r.Before), r.RID)
			ix.tree.Insert(ix.keyOf(r.After), r.RID)
		}
		if r.RID >= tbl.nextRID {
			tbl.nextRID = r.RID + 1
		}
	}
	return nil
}

// replayDDLLocked re-executes a logged DDL statement against the catalog
// and runtime state. Caller holds the latch.
func (db *DB) replayDDLLocked(r wal.Record) error {
	stmt, err := sql.Parse(r.Table)
	if err != nil {
		return fmt.Errorf("engine: recovery: bad DDL record %q: %w", r.Table, err)
	}
	switch s := stmt.(type) {
	case sql.CreateTable:
		return db.createTableLocked(s.Name, astColumns(s))
	case sql.CreateIndex:
		return db.createIndexLocked(s.Name, s.Table, s.Cols, s.Unique)
	case sql.DropTable:
		if err := db.cat.DropTable(s.Name); err != nil {
			return err
		}
		delete(db.tables, s.Name)
		return nil
	default:
		return fmt.Errorf("engine: recovery: unexpected DDL record %q", r.Table)
	}
}
