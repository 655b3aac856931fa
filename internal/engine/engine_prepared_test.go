package engine

import (
	"errors"
	"path/filepath"
	"testing"
	"time"
)

func TestPrepareCommitFlow(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('a')`)
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	// Plain Commit/Rollback are rejected in the prepared state.
	if err := c.Commit(); err == nil {
		t.Fatal("Commit of prepared txn succeeded")
	}
	if err := c.Rollback(); err == nil {
		t.Fatal("Rollback of prepared txn succeeded")
	}
	// Statements after prepare are rejected.
	if _, err := c.Exec(`INSERT INTO f (name) VALUES ('b')`); err == nil {
		t.Fatal("statement after prepare succeeded")
	}
	if err := c.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	n, _, _ := c.QueryInt(`SELECT COUNT(*) FROM f`)
	c.Commit()
	if n != 1 {
		t.Fatalf("count = %d", n)
	}
}

func TestPrepareRollbackFlow(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('a')`)
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	if err := c.RollbackPrepared(); err != nil {
		t.Fatal(err)
	}
	n, _, _ := c.QueryInt(`SELECT COUNT(*) FROM f`)
	c.Commit()
	if n != 0 {
		t.Fatalf("count = %d after prepared rollback", n)
	}
}

func TestPrepareTxnErrors(t *testing.T) {
	db := testDB(t)
	c := db.Connect()
	if err := c.PrepareTxn(""); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("prepare without txn: %v", err)
	}
	if err := c.CommitPrepared(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("commit-prepared without txn: %v", err)
	}
	if err := c.RollbackPrepared(); !errors.Is(err, ErrNoTxn) {
		t.Fatalf("rollback-prepared without txn: %v", err)
	}
	c.Begin()
	if err := c.CommitPrepared(); err == nil {
		t.Fatal("commit-prepared of unprepared txn succeeded")
	}
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	if err := c.PrepareTxn(""); err == nil {
		t.Fatal("double prepare succeeded")
	}
	if err := c.RollbackPrepared(); err != nil {
		t.Fatal(err)
	}
}

func TestPreparedTxnHoldsLocks(t *testing.T) {
	db := testDB(t, func(c *Config) { c.LockTimeout = 60 * time.Millisecond })
	c1 := setupFileTable(t, db)
	mustExec(t, c1, `INSERT INTO f (name) VALUES ('a')`)
	mustCommit(t, c1)
	db.SetStats("f", 1_000_000, map[string]int64{"name": 1_000_000})

	mustExec(t, c1, `UPDATE f SET recid = 1 WHERE name = 'a'`)
	if err := c1.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	// The prepared transaction still holds its X lock.
	c2 := db.Connect()
	if _, err := c2.Exec(`UPDATE f SET recid = 2 WHERE name = 'a'`); !errors.Is(err, ErrTimeout) {
		t.Fatalf("writer against prepared txn: %v", err)
	}
	c2.Rollback()
	if err := c1.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	// Released after resolution.
	mustExec(t, c2, `UPDATE f SET recid = 2 WHERE name = 'a'`)
	mustCommit(t, c2)
}

func TestIndoubtSurvivesCrashAndCommits(t *testing.T) {
	path := filepath.Join(t.TempDir(), "xa.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('committed-later', 7)`)
	txnID := c.TxnID()
	if err := c.PrepareTxn("branch 42"); err != nil {
		t.Fatal(err)
	}
	db.Close() // crash with a prepared transaction

	db2 := fileDB(t, path)
	defer db2.Close()
	indoubt := db2.IndoubtTxns()
	if len(indoubt) != 1 || indoubt[0] != txnID {
		t.Fatalf("indoubt = %v, want [%d]", indoubt, txnID)
	}
	if got := db2.IndoubtBranch(txnID); got != "branch 42" {
		t.Fatalf("IndoubtBranch = %q, want the name the prepare record carries", got)
	}
	// The prepared effects are present and locked.
	cfgTimeout := db2.LockManager()
	_ = cfgTimeout
	db2.SetLockTimeout(50 * time.Millisecond)
	c2 := db2.Connect()
	db2.SetStats("f", 1_000_000, map[string]int64{"name": 1_000_000})
	if _, err := c2.Exec(`UPDATE f SET recid = 9 WHERE name = 'committed-later'`); !errors.Is(err, ErrTimeout) {
		t.Fatalf("indoubt row not locked: %v", err)
	}
	c2.Rollback()

	if err := db2.ResolveIndoubt(txnID, true); err != nil {
		t.Fatal(err)
	}
	v, ok, err := c2.QueryInt(`SELECT recid FROM f WHERE name = 'committed-later'`)
	if err != nil || !ok || v != 7 {
		t.Fatalf("row after indoubt commit: %d %v %v", v, ok, err)
	}
	c2.Commit()
	// Durable across another restart.
	db2.Close()
	db3 := fileDB(t, path)
	defer db3.Close()
	if len(db3.IndoubtTxns()) != 0 {
		t.Fatal("resolved txn still indoubt after restart")
	}
	c3 := db3.Connect()
	v, ok, _ = c3.QueryInt(`SELECT recid FROM f WHERE name = 'committed-later'`)
	c3.Commit()
	if !ok || v != 7 {
		t.Fatalf("row lost after restart: %d %v", v, ok)
	}
}

func TestIndoubtSurvivesCrashAndRollsBack(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('keep')`)
	mustCommit(t, c)
	mustExec(t, c, `UPDATE f SET recid = 5 WHERE name = 'keep'`)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('new')`)
	txnID := c.TxnID()
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if err := db.ResolveIndoubt(txnID, false); err != nil {
		t.Fatal(err)
	}
	c2 := db.Connect()
	rows, err := c2.Query(`SELECT name, recid FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	if len(rows) != 1 || rows[0][0].Text() != "keep" || !rows[0][1].IsNull() {
		t.Fatalf("rows after indoubt rollback = %v", rows)
	}
	if err := db.ResolveIndoubt(txnID, false); err == nil {
		t.Fatal("double resolve succeeded")
	}
}

// A detached prepared transaction is indoubt exactly as if recovery had
// restored it: named, still locked, settled by ResolveIndoubt — and the
// connection is free for the next transaction.
func TestDetachPreparedHandsOverToIndoubt(t *testing.T) {
	db := testDB(t, func(c *Config) { c.LockTimeout = 50 * time.Millisecond })
	c := setupFileTable(t, db)
	db.SetStats("f", 1_000_000, map[string]int64{"name": 1_000_000})
	mustExec(t, c, `INSERT INTO f (name) VALUES ('detached')`)
	txnID := c.TxnID()
	if err := c.DetachPrepared(); err == nil {
		t.Fatal("detached an unprepared transaction")
	}
	if err := c.PrepareTxn("branch 7"); err != nil {
		t.Fatal(err)
	}
	if err := c.DetachPrepared(); err != nil {
		t.Fatal(err)
	}
	if ids := db.IndoubtTxns(); len(ids) != 1 || ids[0] != txnID || db.IndoubtBranch(txnID) != "branch 7" {
		t.Fatalf("indoubt = %v (branch %q), want [%d] named", ids, db.IndoubtBranch(txnID), txnID)
	}
	if _, err := c.Exec(`UPDATE f SET recid = 1 WHERE name = 'detached'`); !errors.Is(err, ErrTimeout) {
		t.Fatalf("detached row not locked: %v", err)
	}
	c.Rollback()
	if err := db.ResolveIndoubt(txnID, false); err != nil {
		t.Fatal(err)
	}
	n, _, _ := c.QueryInt(`SELECT COUNT(*) FROM f`)
	mustCommit(t, c)
	if n != 0 {
		t.Fatalf("count = %d after the detached branch rolled back", n)
	}
}

func TestTxnOutcome(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('a')`)
	committed := c.TxnID()
	mustCommit(t, c)

	mustExec(t, c, `INSERT INTO f (name) VALUES ('b')`)
	aborted := c.TxnID()
	c.Rollback()

	mustExec(t, c, `INSERT INTO f (name) VALUES ('c')`)
	pending := c.TxnID()
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}

	check := func(txn int64, want string) {
		t.Helper()
		got, err := db.TxnOutcome(txn)
		if err != nil || got != want {
			t.Fatalf("TxnOutcome(%d) = %q, %v; want %q", txn, got, err, want)
		}
	}
	check(committed, "committed")
	check(aborted, "aborted")
	check(pending, "prepared")
	check(999999, "unknown")
	c.CommitPrepared()
	check(pending, "committed")
}
