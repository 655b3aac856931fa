package engine

import (
	"path/filepath"
	"testing"

	"repro/internal/value"
)

// TestCheckpointRequiresDataDir: only a page-backed database checkpoints.
// An in-memory engine, with a memory log or a file log, rebuilds its tables
// from the whole log at restart instead.
func TestCheckpointRequiresDataDir(t *testing.T) {
	if err := testDB(t).Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on an in-memory log")
	}
	path := filepath.Join(t.TempDir(), "db.wal")
	db := fileDB(t, path)
	c := setupFileTable(t, db)
	mustExec(t, c, `INSERT INTO f (name) VALUES ('a')`)
	mustCommit(t, c)
	if err := db.Checkpoint(); err == nil {
		t.Fatal("checkpoint succeeded on a file log without DataDir")
	}
	db.Close()
	db2 := fileDB(t, path)
	defer db2.Close()
	c2 := db2.Connect()
	if n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f WHERE name = 'a'`); err != nil || n != 1 {
		t.Fatalf("file log without DataDir lost its rows: n=%d err=%v", n, err)
	}
	mustCommit(t, c2)
}

func TestRepeatedCheckpoints(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir)
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
	db2 := storageDB(t, dir)
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
