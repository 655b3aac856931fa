package engine

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/value"
)

func TestCheckpointBoundsLogAndRecovers(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "db.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	for i := 0; i < 200; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`,
			value.Str(filename(i)), value.Int(int64(i)))
	}
	mustExec(t, c, `DELETE FROM f WHERE recid = 7`)
	mustExec(t, c, `UPDATE f SET grp = 42 WHERE recid = 9`)
	mustCommit(t, c)

	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() != 0 {
		t.Fatalf("log size after checkpoint = %d (was %d), want 0", after.Size(), before.Size())
	}
	if _, err := os.Stat(path + ".snap"); err != nil {
		t.Fatalf("snapshot missing: %v", err)
	}

	// Post-checkpoint activity lands in the fresh log.
	mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('post-ckpt', 999)`)
	mustExec(t, c, `DELETE FROM f WHERE recid = 3`)
	mustCommit(t, c)
	// An uncommitted transaction dies with the crash.
	mustExec(t, c, `INSERT INTO f (name) VALUES ('lost')`)
	db.Close()

	db2 := fileDB(t, path)
	defer db2.Close()
	c2 := db2.Connect()
	n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	// 200 - 1 (recid 7) + 1 (post-ckpt) - 1 (recid 3) = 199.
	if n != 199 {
		t.Fatalf("count after snapshot+log recovery = %d, want 199", n)
	}
	// Snapshot content checks: the pre-checkpoint update survived.
	g, ok, _ := c2.QueryInt(`SELECT grp FROM f WHERE recid = 9`)
	if !ok || g != 42 {
		t.Fatalf("updated row lost: %d %v", g, ok)
	}
	// Unique index rebuilt from the snapshot still enforces.
	if _, err := c2.Exec(`INSERT INTO f (name) VALUES ('post-ckpt')`); err == nil {
		t.Fatal("unique index not restored from snapshot")
	}
	c2.Rollback()
	// The uncommitted insert is gone.
	cnt, _, _ := c2.QueryInt(`SELECT COUNT(*) FROM f WHERE name = 'lost'`)
	c2.Commit()
	if cnt != 0 {
		t.Fatal("uncommitted insert survived")
	}
	// New rows do not clobber snapshot rids.
	mustExec(t, c2, `INSERT INTO f (name) VALUES ('fresh')`)
	if err := c2.Commit(); err != nil {
		t.Fatal(err)
	}
	n2, _, _ := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	c2.Commit()
	if n2 != 200 {
		t.Fatalf("count after fresh insert = %d, want 200", n2)
	}
}

func TestCheckpointRequiresQuiescence(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('open')`)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with a transaction in flight")
	}
	mustCommit(t, c)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckpointRequiresFileBackedLog(t *testing.T) {
	db := testDB(t)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on an in-memory log")
	}
}

func TestCheckpointRejectsIndoubt(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('xa')`)
	txnID := c.TxnID()
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded with a prepared transaction")
	}
	if err := c.CommitPrepared(); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	_ = txnID
}

func TestRepeatedCheckpoints(t *testing.T) {
	path := filepath.Join(t.TempDir(), "db.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	for round := 0; round < 3; round++ {
		for i := 0; i < 20; i++ {
			mustExec(t, c, `INSERT INTO f (name) VALUES (?)`,
				value.Str(filename(round*100+i)))
		}
		mustCommit(t, c)
		if err := db.Checkpoint(); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
	}
	db.Close()
	db2 := fileDB(t, path)
	defer db2.Close()
	c2 := db2.Connect()
	n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	c2.Commit()
	if n != 60 {
		t.Fatalf("count = %d, want 60", n)
	}
}

func TestSnapshotDDLOnlyTables(t *testing.T) {
	// A table with indexes but no rows round-trips through the snapshot.
	path := filepath.Join(t.TempDir(), "db.wal")
	db := fileDB(t, path)
	setupFileTable(t, db)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	db.Close()
	db2 := fileDB(t, path)
	defer db2.Close()
	c := db2.Connect()
	mustExec(t, c, `INSERT INTO f (name) VALUES ('a')`)
	if _, err := c.Exec(`INSERT INTO f (name) VALUES ('a')`); err == nil {
		t.Fatal("unique index lost through empty snapshot")
	}
	c.Rollback()
}
