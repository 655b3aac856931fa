package engine

import (
	"fmt"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/wal"
)

// Fault points on the engine's transaction-hardening paths: a fire before
// the commit/prepare record reaches the log fails the operation while the
// transaction stays open, so the caller's rollback path is exercised.
var (
	fpTxnCommit  = fault.P("engine.txn.commit")
	fpTxnPrepare = fault.P("engine.txn.prepare")
)

type txn struct {
	id int64
	// undo holds the transaction's data records in log order. Rollback
	// applies their inverses in reverse; durability across crashes comes
	// from the write-ahead log instead.
	undo     []wal.Record
	aborted  bool
	prepared bool
	wrote    bool
	branch   string // a prepared transaction's name (see PrepareTxn)
	// firstLSN is set for indoubt transactions restored by recovery: the
	// reopened log no longer tracks them, so the fuzzy checkpoint must
	// floor its StartLSN here itself.
	firstLSN int64
}

// Conn is a database connection (the paper's "child agent" holds one). A
// Conn is not safe for concurrent use; each agent owns its own.
type Conn struct {
	db   *DB
	txn  *txn
	span obs.SpanCtx // current trace position; parents WAL-fsync spans
}

// SetSpanCtx attaches a span context to the connection: the next implicit
// begin binds the engine-local txn id to it (so lock waits find their
// trace), and WAL fsync spans parent under it. The zero context detaches.
func (c *Conn) SetSpanCtx(ctx obs.SpanCtx) {
	c.span = ctx
	if c.txn != nil {
		c.db.tracer.BindTxn(c.txn.id, ctx)
	}
}

// Connect opens a new connection.
func (db *DB) Connect() *Conn { return &Conn{db: db} }

// InTxn reports whether a transaction is active on this connection.
func (c *Conn) InTxn() bool { return c.txn != nil }

// TxnID returns the local transaction id, or 0 if none is active.
func (c *Conn) TxnID() int64 {
	if c.txn == nil {
		return 0
	}
	return c.txn.id
}

// begin starts a transaction if none is active (DB2-style implicit begin on
// the first statement).
func (c *Conn) begin() *txn {
	if c.txn == nil {
		c.txn = &txn{id: c.db.nextTxn.Add(1)}
		if c.span.Valid() {
			c.db.tracer.BindTxn(c.txn.id, c.span)
		}
	}
	return c.txn
}

// Begin explicitly starts a transaction.
func (c *Conn) Begin() error {
	if c.txn != nil {
		return fmt.Errorf("engine: transaction %d already active", c.txn.id)
	}
	c.begin()
	return nil
}

// Commit makes the transaction's changes durable and releases its locks.
func (c *Conn) Commit() error {
	if c.txn == nil {
		return ErrNoTxn
	}
	t := c.txn
	if t.aborted {
		// The engine already rolled back (deadlock victim); committing is
		// an error, the connection must acknowledge with Rollback.
		return ErrTxnAborted
	}
	if t.prepared {
		return fmt.Errorf("engine: transaction %d is prepared; use CommitPrepared/RollbackPrepared", t.id)
	}
	if t.wrote {
		if err := fpTxnCommit.Fire(); err != nil {
			return err
		}
		if _, err := c.db.log.Append(wal.Record{Txn: t.id, Type: wal.RecCommit}); err != nil {
			return err
		}
		if c.db.cfg.SyncCommit {
			// SyncBatched shares one fsync among concurrent committers when
			// group commit is on, and is a plain Sync otherwise.
			fsync := c.db.tracer.StartSpan(c.span, "engine", "wal_fsync")
			err := c.db.log.SyncBatched()
			fsync.End()
			if err != nil {
				return err
			}
		}
	} else {
		c.db.log.ForgetTxn(t.id)
	}
	c.db.lm.ReleaseAll(t.id)
	c.db.tracer.UnbindTxn(t.id)
	c.db.commits.Add(1)
	c.txn = nil
	return nil
}

// Rollback undoes the transaction's changes and releases its locks. Rolling
// back an already-aborted transaction just acknowledges the abort.
func (c *Conn) Rollback() error {
	if c.txn == nil {
		return ErrNoTxn
	}
	t := c.txn
	if t.prepared {
		return fmt.Errorf("engine: transaction %d is prepared; use CommitPrepared/RollbackPrepared", t.id)
	}
	if !t.aborted {
		c.db.rollbackTxn(t)
	}
	c.txn = nil
	return nil
}

// rollbackTxn undoes t's changes, writes the abort record, and releases
// locks. Called for explicit rollback and for automatic victim rollback.
func (db *DB) rollbackTxn(t *txn) {
	db.latch.Lock()
	for i := len(t.undo) - 1; i >= 0; i-- {
		db.undoLocked(t.undo[i])
	}
	db.latch.Unlock()
	if t.wrote {
		// Abort records always fit in the log.
		if _, err := db.log.Append(wal.Record{Txn: t.id, Type: wal.RecAbort}); err != nil {
			panic(fmt.Sprintf("engine: abort record rejected: %v", err))
		}
	} else {
		db.log.ForgetTxn(t.id)
	}
	db.lm.ReleaseAll(t.id)
	db.tracer.UnbindTxn(t.id)
	db.rollbacks.Add(1)
	t.aborted = true
	t.undo = nil
}

// undoLocked reverts one data record. Caller holds the latch.
func (db *DB) undoLocked(r wal.Record) {
	tbl := db.tables[r.Table]
	if tbl == nil {
		return // table dropped after the change; nothing to restore
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
			oldK, newK := ix.keyOf(r.Before), ix.keyOf(r.After)
			if value.CompareKeys(oldK, newK) != 0 {
				ix.tree.Delete(newK, r.RID)
				ix.tree.Insert(oldK, r.RID)
			}
		}
	}
}

// autoAbort is invoked when a statement hits a deadlock or lock timeout:
// DB2 rolls the whole transaction back before returning the error, and the
// application sees the transaction as gone (the paper's host rolls back the
// full transaction for exactly this reason).
func (c *Conn) autoAbort() {
	if c.txn != nil && !c.txn.aborted {
		c.db.rollbackTxn(c.txn)
	}
}
