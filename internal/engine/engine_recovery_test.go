package engine

import (
	"errors"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/value"
	"repro/internal/wal"
)

func fileDB(t *testing.T, path string, mutate ...func(*Config)) *DB {
	t.Helper()
	cfg := DefaultConfig("test")
	cfg.LockTimeout = 2 * time.Second
	cfg.LogPath = path
	for _, m := range mutate {
		m(&cfg)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestRecoveryAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f VALUES ('committed', 1, 'L', 1)`)
	mustExec(t, c, `INSERT INTO f VALUES ('gone', 2, 'L', 1)`)
	mustExec(t, c, `UPDATE f SET state = 'U' WHERE name = 'committed'`)
	mustExec(t, c, `DELETE FROM f WHERE name = 'gone'`)
	mustCommit(t, c)
	// An uncommitted transaction that dies with the process.
	mustExec(t, c, `INSERT INTO f VALUES ('lost', 3, 'L', 1)`)
	db.Close()

	db2 := fileDB(t, path)
	defer db2.Close()
	c2 := db2.Connect()
	rows, err := c2.Query(`SELECT name, state FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	if len(rows) != 1 || rows[0][0].Text() != "committed" || rows[0][1].Text() != "U" {
		t.Fatalf("rows after recovery = %v", rows)
	}
	// Indexes were rebuilt: unique and secondary lookups work.
	n, _, _ := c2.QueryInt(`SELECT COUNT(*) FROM f WHERE grp = 1`)
	c2.Commit()
	if n != 1 {
		t.Fatalf("index count = %d", n)
	}
	// Unique constraint still enforced after recovery.
	if _, err := c2.Exec(`INSERT INTO f (name) VALUES ('committed')`); err == nil {
		t.Error("unique index not rebuilt")
	}
	c2.Rollback()
	// New inserts continue with fresh rids (no clobbering).
	mustExec(t, c2, `INSERT INTO f (name) VALUES ('fresh')`)
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
	cnt, _, _ := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	c2.Commit()
	if cnt != 2 {
		t.Fatalf("count = %d", cnt)
	}
}

func TestCrashSimulationInMemory(t *testing.T) {
	db := testDB(t) // in-memory WAL
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f VALUES ('durable', 1, 'L', 1)`)
	mustCommit(t, c)
	mustExec(t, c, `INSERT INTO f VALUES ('inflight', 2, 'L', 1)`)
	// No commit: simulate the crash.
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	c2 := db.Connect()
	rows, err := c2.Query(`SELECT name FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	if len(rows) != 1 || rows[0][0].Text() != "durable" {
		t.Fatalf("rows after crash = %v", rows)
	}
}

func TestCrashReleasesAllLocks(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f VALUES ('a', 1, 'L', 1)`)
	mustCommit(t, c)
	mustExec(t, c, `UPDATE f SET state = 'U' WHERE name = 'a'`) // holds X
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	c2 := db.Connect()
	mustExec(t, c2, `UPDATE f SET state = 'X' WHERE name = 'a'`)
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestRecoveryReplaysDDLOrder(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ddl.wal")
	db := fileDB(t, path)
	c := db.Connect()
	mustExec(t, c, `CREATE TABLE a (x BIGINT)`)
	mustExec(t, c, `INSERT INTO a VALUES (1)`)
	mustCommit(t, c)
	mustExec(t, c, `DROP TABLE a`)
	mustExec(t, c, `CREATE TABLE a (y VARCHAR)`)
	mustExec(t, c, `INSERT INTO a VALUES ('two')`)
	mustCommit(t, c)
	db.Close()

	db2 := fileDB(t, path)
	defer db2.Close()
	c2 := db2.Connect()
	rows, err := c2.Query(`SELECT y FROM a`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	if len(rows) != 1 || rows[0][0].Text() != "two" {
		t.Fatalf("rows = %v", rows)
	}
}

func TestRecoveryIdempotentAcrossMultipleCrashes(t *testing.T) {
	db := testDB(t)
	c := setupFileTable(t, db)
	for i := 0; i < 20; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`,
			value.Str(filename(i)), value.Int(int64(i)))
	}
	mustCommit(t, c)
	for round := 0; round < 3; round++ {
		if err := db.Crash(); err != nil {
			t.Fatalf("crash %d: %v", round, err)
		}
		cc := db.Connect()
		n, _, err := cc.QueryInt(`SELECT COUNT(*) FROM f`)
		if err != nil {
			t.Fatal(err)
		}
		cc.Commit()
		if n != 20 {
			t.Fatalf("after crash %d: count = %d", round, n)
		}
	}
}

func TestStatsNotDurableAcrossCrash(t *testing.T) {
	// Catalog statistics live outside the WAL (as in DB2 they live in
	// catalog tables; we keep them in memory) — after a crash DLFM's
	// stats-guard must re-install them. This test pins that contract.
	db := testDB(t)
	setupFileTable(t, db)
	db.SetStats("f", 1_000_000, map[string]int64{"name": 1_000_000})
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	st, err := db.Catalog().StatsOf("f")
	if err != nil {
		t.Fatal(err)
	}
	if st.HandCrafted {
		t.Fatal("hand-crafted stats unexpectedly survived the crash")
	}
}

// TestRecoveryBothBackings runs every restart case on each backing: the
// in-memory engine, the page-backed engine (DataDir) restarting from its
// whole log, and the page-backed engine with a fuzzy checkpoint taken at the
// case's midpoint, so that restart attaches tables from the checkpoint and
// replays only the tail.
func TestRecoveryBothBackings(t *testing.T) {
	backings := []struct {
		name string
		open func(t *testing.T) *DB
		mid  func(t *testing.T, db *DB)
	}{
		{"memory", func(t *testing.T) *DB { return testDB(t) }, func(*testing.T, *DB) {}},
		{"paged", pagedTestDB, func(*testing.T, *DB) {}},
		{"paged-checkpoint", pagedTestDB, func(t *testing.T, db *DB) {
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
		}},
	}
	// count returns the number of rows matching where, outside any
	// transaction the case leaves open.
	count := func(t *testing.T, db *DB, where string) int64 {
		t.Helper()
		c := db.Connect()
		n, _, err := c.QueryInt(`SELECT COUNT(*) FROM f WHERE ` + where)
		if err != nil {
			t.Fatal(err)
		}
		mustCommit(t, c)
		return n
	}
	crash := func(t *testing.T, db *DB) {
		t.Helper()
		if err := db.Crash(); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T, db *DB, mid func())
	}{
		{"committed", func(t *testing.T, db *DB, mid func()) {
			c := setupFileTable(t, db)
			for i := 0; i < 30; i++ {
				mustExec(t, c, `INSERT INTO f (name, recid, grp) VALUES (?, ?, ?)`,
					value.Str(filename(i)), value.Int(int64(i)), value.Int(int64(i%3)))
			}
			mustCommit(t, c)
			mid()
			mustExec(t, c, `UPDATE f SET state = 'U' WHERE recid = 4`)
			mustExec(t, c, `DELETE FROM f WHERE recid = 5`)
			mustCommit(t, c)
			crash(t, db)
			if n := count(t, db, `recid >= 0`); n != 29 {
				t.Fatalf("count = %d, want 29", n)
			}
			if n := count(t, db, `grp = 1 AND state = 'U'`); n != 1 {
				t.Fatalf("updated row through the grp index: %d, want 1", n)
			}
			c2 := db.Connect()
			if _, err := c2.Exec(`INSERT INTO f (name) VALUES (?)`, value.Str(filename(3))); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("unique index after restart: %v", err)
			}
			c2.Rollback()
			mustExec(t, c2, `INSERT INTO f (name, recid) VALUES ('fresh', 100)`)
			mustCommit(t, c2)
			if n := count(t, db, `recid >= 0`); n != 30 {
				t.Fatalf("a fresh insert overwrote a recovered row: count = %d", n)
			}
		}},
		{"aborted key reused", func(t *testing.T, db *DB, mid func()) {
			c := setupFileTable(t, db)
			mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('k', 1)`)
			mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('k2', 1)`)
			if err := c.Rollback(); err != nil {
				t.Fatal(err)
			}
			mid()
			mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('k', 2)`)
			mustCommit(t, c)
			crash(t, db)
			if n := count(t, db, `name = 'k' AND recid = 2`); n != 1 {
				t.Fatalf("committed reuse of the key: %d rows, want 1", n)
			}
			if n := count(t, db, `recid = 1`); n != 0 {
				t.Fatalf("aborted rows survived: %d", n)
			}
		}},
		{"undecided", func(t *testing.T, db *DB, mid func()) {
			c := setupFileTable(t, db)
			mustExec(t, c, `INSERT INTO f (name, recid, state) VALUES ('a', 1, 'L')`)
			mustCommit(t, c)
			mid()
			mustExec(t, c, `UPDATE f SET state = 'X', name = 'b' WHERE recid = 1`)
			mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('lost', 2)`)
			crash(t, db)
			if n := count(t, db, `name = 'a' AND state = 'L'`); n != 1 {
				t.Fatalf("undecided update not undone: %d", n)
			}
			if n := count(t, db, `recid >= 0`); n != 1 {
				t.Fatalf("undecided insert survived: count = %d", n)
			}
			// Its locks died with it.
			c2 := db.Connect()
			mustExec(t, c2, `UPDATE f SET state = 'U' WHERE name = 'a'`)
			mustCommit(t, c2)
		}},
		{"prepared", func(t *testing.T, db *DB, mid func()) {
			c := setupFileTable(t, db)
			mustExec(t, c, `INSERT INTO f (name, recid, state) VALUES ('a', 1, 'L')`)
			mustCommit(t, c)
			mustExec(t, c, `UPDATE f SET state = 'U' WHERE name = 'a'`)
			mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('p', 2)`)
			id := c.TxnID()
			if err := c.PrepareTxn("branch-7"); err != nil {
				t.Fatal(err)
			}
			mid()
			crash(t, db)
			if got := db.IndoubtTxns(); len(got) != 1 || got[0] != id {
				t.Fatalf("indoubt = %v, want [%d]", got, id)
			}
			if got := db.IndoubtBranch(id); got != "branch-7" {
				t.Fatalf("branch = %q", got)
			}
			db.SetLockTimeout(50 * time.Millisecond)
			c2 := db.Connect()
			if _, err := c2.Exec(`UPDATE f SET state = 'X' WHERE name = 'a'`); !errors.Is(err, ErrTimeout) {
				t.Fatalf("indoubt row lock not restored: %v", err)
			}
			c2.Rollback()
			if err := db.ResolveIndoubt(id, true); err != nil {
				t.Fatal(err)
			}
			if n := count(t, db, `state = 'U'`) + count(t, db, `name = 'p'`); n != 2 {
				t.Fatalf("committed indoubt rows = %d, want 2", n)
			}
		}},
		{"create index after data", func(t *testing.T, db *DB, mid func()) {
			c := db.Connect()
			mustExec(t, c, `CREATE TABLE f (name VARCHAR NOT NULL, recid BIGINT, state VARCHAR, grp BIGINT)`)
			for i := 0; i < 20; i++ {
				mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`, value.Str(filename(i)), value.Int(int64(i)))
			}
			mustCommit(t, c)
			mid()
			mustExec(t, c, `CREATE UNIQUE INDEX f_name ON f (name)`)
			mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('late', 20)`)
			mustCommit(t, c)
			crash(t, db)
			if n := count(t, db, `name = 'late'`) + count(t, db, `name = '`+filename(7)+`'`); n != 2 {
				t.Fatalf("index lookups after restart = %d, want 2", n)
			}
			c2 := db.Connect()
			if _, err := c2.Exec(`INSERT INTO f (name) VALUES (?)`, value.Str(filename(7))); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("index created after data not enforced: %v", err)
			}
			c2.Rollback()
		}},
		{"drop and create again", func(t *testing.T, db *DB, mid func()) {
			c := db.Connect()
			mustExec(t, c, `CREATE TABLE f (x BIGINT)`)
			mustExec(t, c, `CREATE INDEX f_x ON f (x)`)
			mustExec(t, c, `INSERT INTO f VALUES (1)`)
			mustCommit(t, c)
			mid()
			mustExec(t, c, `DROP TABLE f`)
			mustExec(t, c, `CREATE TABLE f (name VARCHAR, recid BIGINT)`)
			mustExec(t, c, `INSERT INTO f VALUES ('two', 2)`)
			mustCommit(t, c)
			crash(t, db)
			rows, err := c.Query(`SELECT name, recid FROM f`)
			if err != nil {
				t.Fatal(err)
			}
			mustCommit(t, c)
			if len(rows) != 1 || rows[0][0].Text() != "two" {
				t.Fatalf("rows = %v", rows)
			}
		}},
		{"empty indexed table", func(t *testing.T, db *DB, mid func()) {
			setupFileTable(t, db)
			mid()
			crash(t, db)
			c := db.Connect()
			mustExec(t, c, `INSERT INTO f (name) VALUES ('a')`)
			if _, err := c.Exec(`INSERT INTO f (name) VALUES ('a')`); !errors.Is(err, ErrDuplicate) {
				t.Fatalf("unique index of an empty table lost: %v", err)
			}
			c.Rollback()
		}},
		{"three crashes", func(t *testing.T, db *DB, mid func()) {
			c := setupFileTable(t, db)
			for i := 0; i < 20; i++ {
				mustExec(t, c, `INSERT INTO f (name, recid, state) VALUES (?, ?, 'L')`,
					value.Str(filename(i)), value.Int(int64(i)))
			}
			mustCommit(t, c)
			// A loser that touches row 3 dies in the first crash; the row is
			// then updated and committed by someone else.
			mustExec(t, c, `UPDATE f SET state = 'X' WHERE recid = 3`)
			crash(t, db)
			mid()
			c2 := db.Connect()
			mustExec(t, c2, `UPDATE f SET state = 'C' WHERE recid = 3`)
			mustCommit(t, c2)
			for round := 0; round < 2; round++ {
				crash(t, db)
				if n := count(t, db, `recid >= 0`); n != int64(20+round) {
					t.Fatalf("after crash %d: count = %d", round+2, n)
				}
				if n := count(t, db, `recid = 3 AND state = 'C'`); n != 1 {
					t.Fatalf("after crash %d: committed update of row 3 lost", round+2)
				}
				c3 := db.Connect()
				mustExec(t, c3, `INSERT INTO f (name, recid) VALUES (?, ?)`,
					value.Str(filename(100+round)), value.Int(int64(100+round)))
				mustCommit(t, c3)
			}
		}},
	}
	for _, b := range backings {
		for _, tc := range cases {
			t.Run(b.name+"/"+tc.name, func(t *testing.T) {
				db := b.open(t)
				tc.run(t, db, func() { b.mid(t, db) })
			})
		}
	}
}

// pagedTestDB opens a page-backed database in a fresh directory.
func pagedTestDB(t *testing.T) *DB {
	db := storageDB(t, t.TempDir())
	t.Cleanup(func() { db.Close() })
	return db
}

// TestApplyRejectsUnknownTable: the standby shares recovery's redo, but a
// replicated record for a table it does not have means it diverged from its
// primary, so the apply fails instead of skipping the record.
func TestApplyRejectsUnknownTable(t *testing.T) {
	db := testDB(t)
	recs := []wal.Record{{Txn: 5, Type: wal.RecInsert, Table: "nope", RID: 1, After: value.Row{value.Int(1)}}}
	if err := db.ApplyCommitted(5, recs); err == nil {
		t.Fatal("commit apply into an unknown table succeeded")
	}
	if err := db.ApplyPrepared(6, []wal.Record{{Txn: 6, Type: wal.RecDelete, Table: "nope", RID: 1}}); err == nil {
		t.Fatal("prepared apply into an unknown table succeeded")
	}
	if got := db.IndoubtTxns(); len(got) != 0 {
		t.Fatalf("a failed prepared apply left indoubt transactions %v", got)
	}
}
