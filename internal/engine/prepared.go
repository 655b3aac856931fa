package engine

import (
	"fmt"
	"sort"

	"repro/internal/wal"
)

// Prepared (XA-style) transactions. The paper's host database can itself be
// a branch of a global transaction ("If the transaction is a branch of a
// global (distributed) transaction, prepare request to the DLFM is invoked
// as part of global prepare processing", Section 3.3); that requires the
// host engine to harden a transaction at prepare, keep its locks, survive a
// crash in the prepared state, and let the coordinator decide later.

// PrepareTxn hardens the connection's transaction without committing it:
// the prepare record is forced to the log and every lock is retained. After
// PrepareTxn only CommitPrepared, RollbackPrepared or DetachPrepared are
// valid. branch is the preparer's name for the transaction, kept in the
// prepare record so that whoever resolves it after a crash (IndoubtBranch)
// knows what it belongs to.
func (c *Conn) PrepareTxn(branch string) error {
	if c.txn == nil {
		return ErrNoTxn
	}
	t := c.txn
	if t.aborted {
		return ErrTxnAborted
	}
	if t.prepared {
		return fmt.Errorf("engine: transaction %d is already prepared", t.id)
	}
	if err := fpTxnPrepare.Fire(); err != nil {
		return err
	}
	if _, err := c.db.log.Append(wal.Record{Txn: t.id, Type: wal.RecPrepare, Table: branch}); err != nil {
		return err
	}
	fsync := c.db.tracer.StartSpan(c.span, "engine", "wal_fsync")
	err := c.db.log.SyncBatched()
	fsync.End()
	if err != nil {
		return err
	}
	t.prepared, t.branch = true, branch
	return nil
}

// DetachPrepared hands the connection's prepared transaction over to the
// database's indoubt set, exactly as crash recovery would have restored it,
// and frees the connection: ResolveIndoubt settles it later.
func (c *Conn) DetachPrepared() error {
	if c.txn == nil || !c.txn.prepared {
		return fmt.Errorf("engine: no prepared transaction to detach")
	}
	c.db.latch.Lock()
	c.db.indoubt[c.txn.id] = c.txn
	c.db.latch.Unlock()
	c.txn = nil
	return nil
}

// CommitPrepared completes a prepared transaction.
func (c *Conn) CommitPrepared() error {
	if c.txn == nil {
		return ErrNoTxn
	}
	if !c.txn.prepared {
		return fmt.Errorf("engine: transaction %d is not prepared", c.txn.id)
	}
	c.txn.prepared = false
	if err := c.Commit(); err != nil {
		c.txn.prepared = true
		return err
	}
	return nil
}

// RollbackPrepared aborts a prepared transaction.
func (c *Conn) RollbackPrepared() error {
	if c.txn == nil {
		return ErrNoTxn
	}
	if !c.txn.prepared {
		return fmt.Errorf("engine: transaction %d is not prepared", c.txn.id)
	}
	c.txn.prepared = false
	if err := c.Rollback(); err != nil {
		c.txn.prepared = true
		return err
	}
	return nil
}

// TxnOutcome reports the durable outcome of a transaction from the log:
// "committed", "aborted", "prepared" (indoubt), or "unknown" (no trace —
// under presumed abort, equivalent to aborted).
func (db *DB) TxnOutcome(txnID int64) (string, error) {
	recs, err := db.log.Records()
	if err != nil {
		return "", err
	}
	state := "unknown"
	for _, r := range recs {
		if r.Txn != txnID {
			continue
		}
		switch r.Type {
		case wal.RecCommit:
			return "committed", nil
		case wal.RecAbort:
			return "aborted", nil
		case wal.RecPrepare:
			state = "prepared"
		}
	}
	return state, nil
}

// IndoubtTxns lists transactions restored in the prepared state by crash
// recovery, waiting for their coordinator's decision.
func (db *DB) IndoubtTxns() []int64 {
	db.latch.Lock()
	defer db.latch.Unlock()
	out := make([]int64, 0, len(db.indoubt))
	for id := range db.indoubt {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IndoubtBranch returns the branch name an indoubt transaction was
// prepared under ("" if it is not indoubt or was prepared unnamed).
func (db *DB) IndoubtBranch(txnID int64) string {
	db.latch.Lock()
	defer db.latch.Unlock()
	if t := db.indoubt[txnID]; t != nil {
		return t.branch
	}
	return ""
}

// ResolveIndoubt commits or rolls back an indoubt transaction: one crash
// recovery restored in the prepared state, or one a connection detached.
func (db *DB) ResolveIndoubt(txnID int64, commit bool) error {
	db.latch.Lock()
	t := db.indoubt[txnID]
	if t == nil {
		db.latch.Unlock()
		return fmt.Errorf("engine: transaction %d is not indoubt", txnID)
	}
	delete(db.indoubt, txnID)
	db.latch.Unlock()
	if commit {
		if _, err := db.log.Append(wal.Record{Txn: t.id, Type: wal.RecCommit}); err != nil {
			return err
		}
		// Whoever resolves a branch may next drop the record its outcome
		// came from, so the commit must not be lost to another crash.
		if db.cfg.SyncCommit {
			if err := db.log.SyncBatched(); err != nil {
				return err
			}
		}
		db.lm.ReleaseAll(t.id)
		db.commits.Add(1)
		return nil
	}
	db.rollbackTxn(t)
	return nil
}
