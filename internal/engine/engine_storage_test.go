package engine

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/value"
)

// storageDB opens a storage-backed database (WAL + page files under dir).
func storageDB(t *testing.T, dir string, mutate ...func(*Config)) *DB {
	t.Helper()
	cfg := DefaultConfig("test")
	cfg.LockTimeout = 2 * time.Second
	cfg.LogPath = filepath.Join(dir, "db.wal")
	cfg.DataDir = dir
	for _, m := range mutate {
		m(&cfg)
	}
	db, err := Open(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return db
}

func TestStorageBackedCRUDAndReopen(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir)
	c := setupFileTable(t, db)
	for i := 0; i < 50; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid, grp) VALUES (?, ?, ?)`,
			value.Str(fmt.Sprintf("s%03d.txt", i)), value.Int(int64(i)), value.Int(int64(i%5)))
	}
	mustExec(t, c, `UPDATE f SET state = 'U' WHERE grp = 2`)
	mustExec(t, c, `DELETE FROM f WHERE grp = 4`)
	mustCommit(t, c)

	n, _, err := c.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c)
	if n != 40 {
		t.Fatalf("count = %d, want 40", n)
	}
	db.Close()

	// Reopen with no checkpoint ever taken: the whole log is the tail.
	db2 := storageDB(t, dir)
	defer db2.Close()
	c2 := db2.Connect()
	n, _, err = c2.QueryInt(`SELECT COUNT(*) FROM f WHERE grp = 2 AND state = 'U'`)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c2)
	if n != 10 {
		t.Fatalf("reopened count(grp=2,U) = %d, want 10", n)
	}
}

func TestStorageCheckpointRestartReplaysOnlyTail(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir)
	c := setupFileTable(t, db)
	const bulk = 400
	for i := 0; i < bulk; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`,
			value.Str(fmt.Sprintf("ck%04d", i)), value.Int(int64(i)))
	}
	mustCommit(t, c)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}

	// A small committed tail after the checkpoint, plus one loser.
	const tail = 10
	for i := 0; i < tail; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`,
			value.Str(fmt.Sprintf("tail%02d", i)), value.Int(int64(bulk+i)))
	}
	mustExec(t, c, `DELETE FROM f WHERE name = 'ck0007'`)
	mustCommit(t, c)
	mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('lost', 9999)`)

	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := db.LastRecovery()
	if rs.StartLSN == 0 {
		t.Fatalf("recovery started at LSN 0; checkpoint anchor not used: %+v", rs)
	}
	// The point of checkpointing: replay is proportional to the tail, not
	// the full history (~bulk*2 data+commit records before the anchor).
	if rs.Replayed > 4*tail+8 {
		t.Fatalf("replayed %d records for a %d-record tail: %+v", rs.Replayed, tail, rs)
	}
	c2 := db.Connect()
	n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	if n != bulk+tail-1 {
		t.Fatalf("count after checkpointed restart = %d, want %d", n, bulk+tail-1)
	}
	lost, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f WHERE name = 'lost'`)
	if err != nil || lost != 0 {
		t.Fatalf("uncommitted row survived: n=%d err=%v", lost, err)
	}
	mustCommit(t, c2)
}

// TestStorageCrashBetweenFlushAndCheckpointMeta kills the database in the
// checkpoint's crash window: dirty pages are flushed and synced, but the
// meta record naming them is never written. Recovery must come up from the
// PREVIOUS checkpoint and replay the full tail since it.
func TestStorageCrashBetweenFlushAndCheckpointMeta(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir)
	c := setupFileTable(t, db)
	for i := 0; i < 100; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`,
			value.Str(fmt.Sprintf("w%04d", i)), value.Int(int64(i)))
	}
	mustCommit(t, c)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	firstAnchor := db.store.Meta().StartLSN

	for i := 100; i < 160; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid) VALUES (?, ?)`,
			value.Str(fmt.Sprintf("w%04d", i)), value.Int(int64(i)))
	}
	mustCommit(t, c)

	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })
	wantErr := errors.New("killed between page flush and meta publish")
	fault.Default().Arm("storage.checkpoint.meta", fault.Action{Err: wantErr})
	if err := db.Checkpoint(); err == nil || !errors.Is(err, wantErr) {
		t.Fatalf("checkpoint error = %v, want the armed crash", err)
	}
	fault.Default().Reset()

	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rs := db.LastRecovery()
	if rs.StartLSN != firstAnchor {
		t.Fatalf("recovered from LSN %d, want the surviving first anchor %d", rs.StartLSN, firstAnchor)
	}
	c2 := db.Connect()
	n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c2)
	if n != 160 {
		t.Fatalf("count after torn checkpoint = %d, want 160", n)
	}

	// The database must still be able to checkpoint and restart cleanly.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	if got := db.LastRecovery().StartLSN; got <= firstAnchor {
		t.Fatalf("post-recovery checkpoint anchor %d did not advance past %d", got, firstAnchor)
	}
}

// TestStoragePoolEvictionUnderConcurrentTxns runs parallel writers against
// a pool far smaller than the working set (run with -race; the storage
// smoke target does).
func TestStoragePoolEvictionUnderConcurrentTxns(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir, func(cfg *Config) { cfg.PoolPages = 16 })
	defer db.Close()
	setupFileTable(t, db) // DDL autocommits

	const writers, rows = 4, 150
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			wc := db.Connect()
			for i := 0; i < rows; i++ {
				name := fmt.Sprintf("w%d-%04d", w, i)
				if _, err := wc.Exec(`INSERT INTO f (name, recid, grp) VALUES (?, ?, ?)`,
					value.Str(name), value.Int(int64(w*rows+i)), value.Int(int64(w))); err != nil {
					errs <- err
					return
				}
				if i%10 == 9 {
					if err := wc.Commit(); err != nil {
						errs <- err
						return
					}
				}
			}
			if wc.InTxn() {
				errs <- wc.Commit()
			} else {
				errs <- nil
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := db.store.Pool().Stats().Evictions; got == 0 {
		t.Fatal("concurrent working set exceeded the pool but nothing evicted")
	}
	c2 := db.Connect()
	n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c2)
	if n != writers*rows {
		t.Fatalf("count = %d, want %d", n, writers*rows)
	}
}

// TestStorageBiggerThanRAMTable loads a table several hundred pages large
// through a 16-frame pool, then scans and point-reads it — the working set
// never fits, so every path exercises fetch/evict/write-back.
func TestStorageBiggerThanRAMTable(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir, func(cfg *Config) { cfg.PoolPages = 16 })
	defer db.Close()
	c := setupFileTable(t, db)
	const n = 3000
	for i := 0; i < n; i++ {
		mustExec(t, c, `INSERT INTO f (name, recid, grp) VALUES (?, ?, ?)`,
			value.Str(fmt.Sprintf("big%05d", i)), value.Int(int64(i)), value.Int(int64(i%100)))
		if i%200 == 199 {
			mustCommit(t, c)
		}
	}
	if c.InTxn() {
		mustCommit(t, c)
	}

	ps := db.store.Pool().Stats()
	if ps.Evictions == 0 {
		t.Fatalf("pool stats %+v: a %d-row table through 16 frames must evict", ps, n)
	}
	count, _, err := c.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	if count != n {
		t.Fatalf("full scan count = %d, want %d", count, n)
	}
	for i := 0; i < n; i += 331 {
		got, ok, err := c.QueryInt(fmt.Sprintf(`SELECT recid FROM f WHERE name = 'big%05d'`, i))
		if err != nil || !ok || got != int64(i) {
			t.Fatalf("point read %d: got %d ok=%v err=%v", i, got, ok, err)
		}
	}
	mustCommit(t, c)

	// And it all survives a restart through the tail/checkpoint machinery.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	c2 := db.Connect()
	count, _, err = c2.QueryInt(`SELECT COUNT(*) FROM f`)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c2)
	if count != n {
		t.Fatalf("count after restart = %d, want %d", count, n)
	}
}

// TestStorageIndoubtSurvivesCrash checks the prepared-transaction contract
// holds on the storage backing: effects present under restored locks,
// resolvable either way, and the fuzzy checkpoint refuses to advance past
// the indoubt transaction's first record.
func TestStorageIndoubtSurvivesCrash(t *testing.T) {
	dir := t.TempDir()
	db := storageDB(t, dir)
	defer db.Close()
	c := setupFileTable(t, db) // DDL autocommits

	mustExec(t, c, `INSERT INTO f (name, recid) VALUES ('indoubt', 1)`)
	if err := c.PrepareTxn(""); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	ids := db.IndoubtTxns()
	if len(ids) != 1 {
		t.Fatalf("indoubt after crash = %v, want one", ids)
	}
	// A checkpoint now must keep its anchor at or below the indoubt
	// transaction's first record, and a second crash must restore it again.
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Crash(); err != nil {
		t.Fatal(err)
	}
	ids = db.IndoubtTxns()
	if len(ids) != 1 {
		t.Fatalf("indoubt after checkpoint+crash = %v, want one", ids)
	}
	if err := db.ResolveIndoubt(ids[0], true); err != nil {
		t.Fatal(err)
	}
	c2 := db.Connect()
	n, _, err := c2.QueryInt(`SELECT COUNT(*) FROM f WHERE name = 'indoubt'`)
	if err != nil {
		t.Fatal(err)
	}
	mustCommit(t, c2)
	if n != 1 {
		t.Fatalf("committed indoubt row count = %d, want 1", n)
	}
}
