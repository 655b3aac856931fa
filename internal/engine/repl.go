package engine

import (
	"fmt"

	"repro/internal/lock"
	"repro/internal/sql"
	"repro/internal/wal"
)

// Replication apply primitives. A standby engine is a normal DB that never
// runs SQL: the replication client feeds it whole transactions of WAL
// records fetched from the primary, and these methods redo-apply them
// through the same code path crash recovery uses. Each applied transaction
// is also re-logged locally (with freshly assigned LSNs), so a promoted
// standby recovers from its own log like any primary.

// WAL exposes the database's write-ahead log so a primary can serve
// replication fetches (ReadFrom) directly from it.
func (db *DB) WAL() *wal.Log { return db.log }

// lockRecsTargets X-locks every row recs touch (plus table IX): a standby's
// readers never observe a half-applied transaction, and a restored indoubt
// one holds its locks again. On failure every lock the transaction holds is
// released.
func (db *DB) lockRecsTargets(txnID int64, recs []wal.Record) error {
	locked := make(map[lock.Target]bool)
	for _, r := range recs {
		switch r.Type {
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
		default:
			continue
		}
		tgt := lock.RowTarget(r.Table, r.RID)
		if locked[tgt] {
			continue
		}
		if err := db.lm.Acquire(txnID, lock.TableTarget(r.Table), lock.IX); err != nil {
			db.lm.ReleaseAll(txnID)
			return err
		}
		if err := db.lm.Acquire(txnID, tgt, lock.X); err != nil {
			db.lm.ReleaseAll(txnID)
			return err
		}
		locked[tgt] = true
	}
	return nil
}

// bumpTxnID keeps locally assigned transaction ids clear of replicated
// ones, exactly as recovery does for ids found in the log.
func (db *DB) bumpTxnID(txnID int64) {
	if txnID >= db.nextTxn.Load() {
		db.nextTxn.Store(txnID)
	}
}

// ApplyDDL replays one replicated DDL record (create table/index, drop
// table). DDL is autocommitted on the primary, so it applies immediately.
func (db *DB) ApplyDDL(r wal.Record) error {
	stmt, err := sql.Parse(r.Table)
	if err != nil {
		return fmt.Errorf("engine: repl: bad DDL record %q: %w", r.Table, err)
	}
	if _, err := db.log.Append(wal.Record{Txn: r.Txn, Type: r.Type, Table: r.Table}); err != nil {
		return err
	}
	db.latch.Lock()
	defer db.latch.Unlock()
	db.bumpTxnID(r.Txn)
	return db.replayDDLLocked(stmt)
}

// ApplyCommitted applies one committed replicated transaction: its data
// records are re-logged and redone atomically under the transaction's own
// X locks, then a commit record seals it. Locks are only needed to fence
// concurrent standby readers; on error (lock timeout, deadlock victim)
// nothing has been applied and the caller may retry.
func (db *DB) ApplyCommitted(txnID int64, recs []wal.Record) error {
	return db.applyTxn(txnID, recs, wal.RecCommit)
}

// ApplyPrepared applies a replicated transaction hardened by prepare but
// not yet resolved: its effects are redone and it is registered indoubt
// with its undo list rebuilt and its X locks retained, exactly the state
// crash recovery would restore. The coordinator's later decision arrives
// through ResolveIndoubt.
func (db *DB) ApplyPrepared(txnID int64, recs []wal.Record) error {
	return db.applyTxn(txnID, recs, wal.RecPrepare)
}

// applyTxn re-logs and redoes one replicated transaction and seals it with
// a commit or prepare record. A data record for a table the standby does
// not have means it has diverged from its primary, and is an error.
func (db *DB) applyTxn(txnID int64, recs []wal.Record, seal wal.RecType) error {
	if err := db.lockRecsTargets(txnID, recs); err != nil {
		return err
	}
	fail := func(err error) error {
		db.lm.ReleaseAll(txnID)
		return fmt.Errorf("engine: repl apply txn %d: %w", txnID, err)
	}
	undo := txnUndo(txnID, recs)
	for _, r := range undo {
		if _, err := db.log.Append(r); err != nil {
			return fail(err)
		}
	}
	if _, err := db.log.Append(wal.Record{Txn: txnID, Type: seal}); err != nil {
		return fail(err)
	}
	if seal == wal.RecPrepare || db.cfg.SyncCommit {
		if err := db.log.Sync(); err != nil {
			return fail(err)
		}
	}
	db.latch.Lock()
	defer db.latch.Unlock()
	db.bumpTxnID(txnID)
	for _, r := range undo {
		if !db.redoLocked(r) {
			return fail(fmt.Errorf("%s into unknown table %q (LSN %d)", r.Type, r.Table, r.LSN))
		}
	}
	if seal == wal.RecPrepare {
		db.indoubt[txnID] = &txn{id: txnID, prepared: true, wrote: true, undo: undo}
		return nil
	}
	db.lm.ReleaseAll(txnID)
	db.commits.Add(1)
	return nil
}
