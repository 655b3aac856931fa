package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fleet"
	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/value"
)

// TestPaperShapes asserts the shape of each lesson the paper reports (and of
// the later fleet and commit-protocol claims): who wins, which side of a
// threshold misbehaves, which daemon does work. Absolute rates are bench/'s
// business. EXPERIMENTS.md maps every figure to its case here or to the
// existing test that already asserts it.
//
// Most cases spend their time waiting on lock timeouts and grace windows,
// so they run side by side. E13 arms the process-wide fault registry with
// coordinator crashes that fire only in a commit spanning two DLFMs; the
// cases beside it use one DLFM, or none. E6 and E16 commit across DLFMs
// and run alone, first.
func TestPaperShapes(t *testing.T) {
	for _, c := range []struct {
		name  string
		alone bool
		run   func(t *testing.T)
	}{
		{"E2 one file op per insert, two per update", false, shapeFileOpsPerOp},
		{"E3 next-key locking off gives no deadlocks", false, shapeNextKeyOff},
		{"E4 escalation only over the threshold", false, shapeEscalation},
		{"E5 crafted statistics bind an index scan", false, shapeOptimizerStats},
		{"E6 async commit stalls, sync does not", true, shapeSyncCommit},
		{"E7 every lock timeout commits", false, shapeTimeoutSweep},
		{"E8 one transaction hits log full, batches do not", false, shapeBatchCommit},
		{"E13 2PC wedges, Paxos Commit does not", false, shapeCommitProtocols},
		{"E16 the fleet plane localizes a degraded member", true, shapeFleetLocalization},
		{"F4 phase 2 acquires locks", false, shapeCommitLocks},
		{"F5 every daemon works", false, shapeProcessModel},
	} {
		t.Run(c.name, func(t *testing.T) {
			if !c.alone {
				t.Parallel()
			}
			c.run(t)
		})
	}
}

// withDLFM and withHost layer a config change over testStack's defaults.
func withDLFM(f func(*core.Config)) func(*StackConfig) {
	return func(c *StackConfig) {
		prev := c.MutateDLFM
		c.MutateDLFM = func(name string, d *core.Config) {
			prev(name, d)
			f(d)
		}
	}
}

func withHost(f func(*hostdb.Config)) func(*StackConfig) {
	return func(c *StackConfig) {
		prev := c.MutateHost
		c.MutateHost = func(h *hostdb.Config) {
			prev(h)
			f(h)
		}
	}
}

// preparedRunner builds a closed-loop workload on st and runs its preload.
func preparedRunner(t *testing.T, st *Stack, cfg Config) *Runner {
	t.Helper()
	r, err := NewRunner(st, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	return r
}

// runWorkload prepares and runs one closed-loop workload on st.
func runWorkload(t *testing.T, st *Stack, cfg Config) Result {
	t.Helper()
	res, err := preparedRunner(t, st, cfg).Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// mustCall sends req on c and fails the test unless the DLFM accepts it.
func mustCall(t *testing.T, c *rpc.Client, req any) {
	t.Helper()
	resp, err := c.Call(req)
	if err != nil {
		t.Fatalf("%T: %v", req, err)
	}
	if !resp.OK() {
		t.Fatalf("%T: %s: %s", req, resp.Code, resp.Msg)
	}
}

// E2 (Abstract, §3.2.1): an update is an unlink plus a link, twice an
// insert's DLFM work — the structural source of the paper's 300 inserts
// against 150 updates per minute.
func shapeFileOpsPerOp(t *testing.T) {
	perCommit := func(mix Mix, preload int) float64 {
		st := testStack(t)
		r := preparedRunner(t, st, Config{Clients: 1, OpsPerClient: 80, Mix: mix, PreloadRows: preload, Seed: 2})
		pre := st.DLFMStats() // after the preload's links
		res, err := r.Run()
		if err != nil {
			t.Fatal(err)
		}
		post := st.DLFMStats()
		if res.Commits == 0 {
			t.Fatalf("mix %+v committed nothing", mix)
		}
		return float64(post.Links-pre.Links+post.Unlinks-pre.Unlinks) / float64(res.Commits)
	}
	if got := perCommit(Mix{InsertPct: 100}, 0); got < 0.95 || got > 1.05 {
		t.Errorf("file ops per insert = %.2f, want 1", got)
	}
	if got := perCommit(Mix{UpdatePct: 100}, 10); got < 1.9 || got > 2.1 {
		t.Errorf("file ops per update = %.2f, want 2", got)
	}
}

// E3 (§3.2.1, §3.4): with next-key locking off, insert/delete churn on the
// multi-index File table forms no deadlock. The ON side, which does, is
// engine.TestNextKeyCrossIndexDeadlock. Deadlock formation is a race, so
// the churn runs several seeded rounds.
func shapeNextKeyOff(t *testing.T) {
	for round := int64(0); round < 4; round++ {
		st := testStack(t, withDLFM(func(c *core.Config) { c.DB.NextKeyLocking = false }))
		// Several operations per transaction lengthen the windows in which
		// held index locks could close a cycle.
		res := runWorkload(t, st, Config{
			Clients: 12, OpsPerClient: 25, TxnOps: 4,
			Mix: Mix{InsertPct: 50, DeletePct: 50}, PreloadRows: 100, Seed: 3 + round*101,
		})
		if res.Commits == 0 {
			t.Fatalf("round %d committed nothing", round)
		}
		if dl := st.EngineStats().Lock.Deadlocks; dl != 0 {
			t.Fatalf("round %d: %d DLFM deadlocks with next-key locking off, want 0", round, dl)
		}
	}
}

// E4 (§4): "lock escalation in any of the metadata tables usually brings the
// system to its knees". A utility linking a batch of files per commit keeps
// row locks while its batch stays under the threshold, and escalates to a
// table lock on dlfm_file once the batch crosses it.
func shapeEscalation(t *testing.T) {
	const threshold = 60
	escalations := func(batch int) int64 {
		st := testStack(t, withDLFM(func(c *core.Config) { c.DB.EscalationThreshold = threshold }))
		if err := st.Host.CreateTable(`CREATE TABLE e4 (id BIGINT NOT NULL, doc VARCHAR)`,
			hostdb.DatalinkCol{Name: "doc"}); err != nil {
			t.Fatal(err)
		}
		big := int64(10_000_000)
		st.Host.Engine().SetStats("e4", big, map[string]int64{"id": big, "doc": big})
		s := st.Host.Session()
		defer s.Close()
		for i := 0; i < batch; i++ {
			path := fmt.Sprintf("/e4/f%05d", i)
			if err := st.FS["fs1"].Create(path, "app", []byte("x")); err != nil {
				t.Fatal(err)
			}
			if _, err := s.Exec(`INSERT INTO e4 (id, doc) VALUES (?, ?)`,
				value.Int(int64(i)), value.Str(hostdb.URL("fs1", path))); err != nil {
				t.Fatalf("batch %d, row %d: %v", batch, i, err)
			}
		}
		if err := s.Commit(); err != nil {
			t.Fatalf("batch %d: commit: %v", batch, err)
		}
		return st.EngineStats().Lock.Escalations
	}
	if n := escalations(10); n != 0 {
		t.Errorf("a 10-link batch under the %d-lock threshold escalated %d times", threshold, n)
	}
	if n := escalations(2 * threshold); n == 0 {
		t.Errorf("a %d-link batch over the %d-lock threshold never escalated", 2*threshold, threshold)
	}
}

// E5 (§3.2.1, §4): the optimizer, seeing never-collected statistics, binds
// table scans on the File table; DLFM's hand-crafted statistics force index
// plans, and the workload reads far fewer rows.
func shapeOptimizerStats(t *testing.T) {
	run := func(crafted bool) (plan string, rowsRead int64) {
		st := testStack(t, withDLFM(func(c *core.Config) {
			c.HandCraftStats = crafted
			c.StatsGuard = crafted
		}))
		// The linked-entry lookup every unlink performs.
		stmt, err := st.DLFMs["fs1"].DB().Prepare(
			`SELECT grpid FROM dlfm_file WHERE name = ? AND state = 'L' AND chkflag = 0`)
		if err != nil {
			t.Fatal(err)
		}
		runWorkload(t, st, Config{
			Clients: 16, OpsPerClient: 10,
			Mix: Mix{InsertPct: 40, UpdatePct: 30, DeletePct: 20}, PreloadRows: 300, Seed: 5,
		})
		return stmt.PlanString(), st.EngineStats().RowsRead
	}
	defPlan, defRows := run(false)
	craftedPlan, craftedRows := run(true)
	if !strings.Contains(defPlan, "TABLE SCAN") {
		t.Errorf("default-stats plan = %q, want TABLE SCAN", defPlan)
	}
	if !strings.Contains(craftedPlan, "INDEX SCAN") {
		t.Errorf("crafted-stats plan = %q, want INDEX SCAN", craftedPlan)
	}
	if defRows <= craftedRows {
		t.Errorf("rows read: default stats %d <= crafted %d; table scans should read far more", defRows, craftedRows)
	}
}

// E6 (§4, Figure 4): the commit API must be synchronous. With an
// asynchronous commit, T1's phase 2 (which takes locks and real time) runs
// behind the host's back; T2 takes a DLFM lock T1's phase 2 needs, T11 (on
// T1's agent) X-locks host record x and waits for the busy agent, and T2
// then needs record x. No local detector sees that cycle; only lock
// timeouts dissolve it. A synchronous commit never lets T11 start early.
func shapeSyncCommit(t *testing.T) {
	if !syncCommitStalls(t, false) {
		t.Error("async commit did not form the distributed deadlock")
	}
	if syncCommitStalls(t, true) {
		t.Error("sync commit formed a deadlock; the paper's rule says it cannot")
	}
}

// syncCommitStalls plays the T1/T11/T2 script and reports whether any lock
// timeout was needed to finish it.
func syncCommitStalls(t *testing.T, sync bool) bool {
	// Phase2Delay models the paper's slow commit processing and opens the
	// interleaving window deterministically; the short lock timeouts bound
	// the stall so the script ends.
	st := testStack(t,
		func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} },
		withHost(func(h *hostdb.Config) {
			h.SyncCommit = sync
			h.DB.LockTimeout = 500 * time.Millisecond
		}),
		withDLFM(func(c *core.Config) {
			c.DB.LockTimeout = 250 * time.Millisecond
			c.Phase2Delay = 150 * time.Millisecond
		}))
	if err := st.Host.CreateTable(`CREATE TABLE e6 (id BIGINT NOT NULL, doc VARCHAR, doc2 VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc"}, hostdb.DatalinkCol{Name: "doc2"}); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Host.Engine().Connect().Exec(`CREATE UNIQUE INDEX e6_id ON e6 (id)`); err != nil {
		t.Fatal(err)
	}
	big := int64(10_000_000)
	st.Host.Engine().SetStats("e6", big, map[string]int64{"id": big, "doc": big})
	for _, f := range []struct{ server, path string }{{"fs1", "/f1"}, {"fs1", "/f11"}, {"fs2", "/g1"}} {
		if err := st.FS[f.server].Create(f.path, "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	// Host record x (id 100) exists up front.
	admin := st.Host.Session()
	if _, err := admin.Exec(`INSERT INTO e6 (id, doc) VALUES (100, NULL)`); err != nil {
		t.Fatal(err)
	}
	if err := admin.Commit(); err != nil {
		t.Fatal(err)
	}
	admin.Close()

	sessA := st.Host.Session() // T1, then T11 on the same agent connection
	sessB := st.Host.Session() // T2
	defer sessA.Close()
	defer sessB.Close()

	// T1 links /f1 and, on fs2, /g1: two DLFMs, so a real phase 2.
	if _, err := sessA.Exec(`INSERT INTO e6 (id, doc, doc2) VALUES (1, ?, ?)`,
		value.Str(hostdb.URL("fs1", "/f1")), value.Str(hostdb.URL("fs2", "/g1"))); err != nil {
		t.Fatal(err)
	}
	if err := sessA.Commit(); err != nil {
		t.Fatal(err)
	}
	// T2 unlinks /f1: under async commit this lands inside T1's phase 2 and
	// X-locks the File-table entry T1's commit needs.
	_, errB1 := sessB.Exec(`UPDATE e6 SET doc = NULL WHERE id = 1`)
	if errB1 != nil && sessB.TxnID() != 0 {
		sessB.Rollback()
	}
	// T11: X lock on host record 100, then a link that waits for the busy
	// child agent.
	if _, err := sessA.Exec(`UPDATE e6 SET doc = NULL WHERE id = 100`); err != nil {
		t.Fatal(err)
	}
	t11 := make(chan error, 1)
	go func() {
		_, err := sessA.Exec(`INSERT INTO e6 (id, doc) VALUES (11, ?)`, value.Str(hostdb.URL("fs1", "/f11")))
		if err == nil {
			err = sessA.Commit()
		}
		t11 <- err
	}()
	time.Sleep(10 * time.Millisecond)
	// T2 now needs host record 100: the last edge of the cycle.
	if errB1 == nil {
		if _, err := sessB.Exec(`UPDATE e6 SET doc = NULL WHERE id = 100`); err == nil {
			if err := sessB.Commit(); err != nil && sessB.TxnID() != 0 {
				sessB.Rollback()
			}
		} else if sessB.TxnID() != 0 {
			sessB.Rollback()
		}
	}
	if err := <-t11; err != nil && sessA.TxnID() != 0 {
		sessA.Rollback()
	}
	return st.EngineStats().Lock.Timeouts+st.Host.Engine().Stats().Lock.Timeouts > 0
}

// E7 (§4): with the deadlock detector off, as for the global deadlocks no
// local detector sees, the lock timeout is the only way out. Short timeouts
// abort healthy waiters and long ones stall real deadlocks, but every
// setting keeps committing. The four settings run side by side: each has
// its own engine, and the run is dominated by waiting.
func shapeTimeoutSweep(t *testing.T) {
	timeouts := []time.Duration{25 * time.Millisecond, 100 * time.Millisecond, 400 * time.Millisecond, 1600 * time.Millisecond}
	commits := make([]int64, len(timeouts))
	var wg sync.WaitGroup
	for i, timeout := range timeouts {
		wg.Add(1)
		go func(i int, timeout time.Duration) {
			defer wg.Done()
			commits[i] = contendedCommits(t, timeout)
		}(i, timeout)
	}
	wg.Wait()
	for i, n := range commits {
		if n == 0 {
			t.Errorf("lock timeout %v: nothing committed", timeouts[i])
		}
	}
}

// contendedCommits runs 8 clients of 8 two-row transactions each, in random
// lock order over 12 rows, on an engine whose only deadlock resolution is the
// given lock timeout, and returns how many committed.
func contendedCommits(t *testing.T, timeout time.Duration) int64 {
	cfg := engine.DefaultConfig("e7")
	cfg.DetectDeadlocks = false
	cfg.NextKeyLocking = false
	cfg.LockTimeout = timeout
	db, err := engine.Open(cfg)
	if err != nil {
		t.Error(err)
		return 0
	}
	defer db.Close()
	c := db.Connect()
	const rows = 12
	for _, q := range []string{`CREATE TABLE accts (id BIGINT NOT NULL, bal BIGINT)`, `CREATE UNIQUE INDEX accts_id ON accts (id)`} {
		if _, err := c.Exec(q); err != nil {
			t.Error(err)
			return 0
		}
	}
	for i := int64(0); i < rows; i++ {
		if _, err := c.Exec(`INSERT INTO accts VALUES (?, 100)`, value.Int(i)); err != nil {
			t.Error(err)
			return 0
		}
	}
	if err := c.Commit(); err != nil {
		t.Error(err)
		return 0
	}
	db.SetStats("accts", 10_000_000, map[string]int64{"id": 10_000_000})

	var commits int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := int64(1); w <= 8; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			conn := db.Connect()
			for i := 0; i < 8; i++ {
				a, b := int64(rng.Intn(rows)), int64(rng.Intn(rows))
				_, err := conn.Exec(`UPDATE accts SET bal = 99 WHERE id = ?`, value.Int(a))
				if err == nil {
					// Think time while holding the first lock lets cycles form.
					time.Sleep(time.Millisecond)
					_, err = conn.Exec(`UPDATE accts SET bal = 101 WHERE id = ?`, value.Int(b))
				}
				if err == nil {
					err = conn.Commit()
				}
				if err == nil {
					mu.Lock()
					commits++
					mu.Unlock()
				} else if conn.InTxn() {
					conn.Rollback()
				}
			}
		}(w)
	}
	wg.Wait()
	return commits
}

// E8 (§4): "unlinking them in single local DB2 transaction can cause the
// DB2 log full error condition. So we issue commits to local DB2
// periodically after processing every N records." A group of 400 linked
// files is dropped on a DLFM with a 64 KB circular log.
func shapeBatchCommit(t *testing.T) {
	const files = 400
	for _, batchN := range []int{0, 200, 50} { // 0: everything in one transaction
		logFull, unlinked := deleteGroupInBatches(t, files, batchN)
		if batchN == 0 {
			if !logFull {
				t.Error("single-transaction delete-group did not hit log full")
			}
			continue
		}
		if logFull {
			t.Errorf("batch %d hit log full", batchN)
		}
		if unlinked != files {
			t.Errorf("batch %d unlinked %d of %d files", batchN, unlinked, files)
		}
	}
}

// deleteGroupInBatches links files into one group, drops it, runs the Delete
// Group daemon's work with local commits every batchN files, and reports
// whether it hit log full and how many entries ended unlinked.
func deleteGroupInBatches(t *testing.T, files, batchN int) (logFull bool, unlinked int64) {
	st := testStack(t, withDLFM(func(c *core.Config) {
		c.DB.LogCapacity = 64 * 1024
		c.ManualDeleteGroup = true
	}))
	dlfm := st.DLFMs["fs1"]
	client := rpc.LocalPair(dlfm)
	defer client.Close()

	// The seed is a batched transaction itself, or it would hit log full.
	const grp = 7
	txn := st.Host.NextTxn()
	mustCall(t, client, rpc.BeginTxnReq{Txn: txn, Batched: true, BatchN: 50})
	mustCall(t, client, rpc.CreateGroupReq{Txn: txn, Grp: grp})
	for i := 0; i < files; i++ {
		path := fmt.Sprintf("/e8/f%05d", i)
		if err := st.FS["fs1"].Create(path, "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
		mustCall(t, client, rpc.LinkFileReq{Txn: txn, Name: path, RecID: st.Host.NextRecID(), Grp: grp})
	}
	mustCall(t, client, rpc.PrepareReq{Txn: txn})
	mustCall(t, client, rpc.CommitReq{Txn: txn})

	drop := st.Host.NextTxn()
	for _, req := range []any{
		rpc.BeginTxnReq{Txn: drop},
		rpc.DeleteGroupReq{Txn: drop, Grp: grp},
		rpc.PrepareReq{Txn: drop},
		rpc.CommitReq{Txn: drop},
	} {
		mustCall(t, client, req)
	}
	if err := dlfm.RunDeleteGroup(drop, batchN); err != nil {
		if !errors.Is(err, engine.ErrLogFull) {
			t.Fatal(err)
		}
		logFull = true
	}
	c := dlfm.DB().Connect()
	n, _, err := c.QueryInt(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'U'`)
	if err != nil {
		t.Fatal(err)
	}
	c.Commit()
	return logFull, n
}

// F4 (Figure 4): a SQL commit acquires no locks, but DLFM's phase-2 commit
// runs SQL on its local database and does, which is why phase 2 can
// deadlock and needs its retry loop.
func shapeCommitLocks(t *testing.T) {
	st := testStack(t)
	dlfm := st.DLFMs["fs1"]
	client := rpc.LocalPair(dlfm)
	defer client.Close()
	const grp = 1
	gtxn := st.Host.NextTxn()
	for _, req := range []any{
		rpc.BeginTxnReq{Txn: gtxn},
		rpc.CreateGroupReq{Txn: gtxn, Grp: grp, Recovery: true},
		rpc.PrepareReq{Txn: gtxn},
		rpc.CommitReq{Txn: gtxn},
	} {
		mustCall(t, client, req)
	}

	var phase2 int64
	for i := 0; i < 10; i++ {
		path := fmt.Sprintf("/f4/f%05d", i)
		if err := st.FS["fs1"].Create(path, "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
		txn := st.Host.NextTxn()
		mustCall(t, client, rpc.BeginTxnReq{Txn: txn})
		mustCall(t, client, rpc.LinkFileReq{Txn: txn, Name: path, RecID: st.Host.NextRecID(), Grp: grp})
		mustCall(t, client, rpc.PrepareReq{Txn: txn})
		before := dlfm.DB().Stats().Lock.Acquisitions
		mustCall(t, client, rpc.CommitReq{Txn: txn})
		phase2 += dlfm.DB().Stats().Lock.Acquisitions - before
	}
	if phase2 <= 0 {
		t.Errorf("phase-2 commits acquired %d locks over 10 transactions, want > 0", phase2)
	}
}

// F5 (Figure 5): the process model in one run. Child agents link files of a
// recovery-enabled, full-control column (Copy and Chown daemons), DLFF
// queries go through the Upcall daemon, a backup and restore drive the
// Retrieve path, and a drop table drives the Delete Group daemon.
func shapeProcessModel(t *testing.T) {
	st := testStack(t, withDLFM(func(c *core.Config) { c.GroupLifespan = 0 }))
	dlfm := st.DLFMs["fs1"]
	if err := st.Host.CreateTable(`CREATE TABLE f5 (id BIGINT NOT NULL, doc VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc", Recovery: true, FullControl: true}); err != nil {
		t.Fatal(err)
	}
	big := int64(10_000_000)
	st.Host.Engine().SetStats("f5", big, map[string]int64{"id": big, "doc": big})

	s := st.Host.Session()
	defer s.Close()
	const n = 10
	for i := 0; i < n; i++ {
		path := fmt.Sprintf("/f5/f%05d", i)
		if err := st.FS["fs1"].Create(path, "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(`INSERT INTO f5 (id, doc) VALUES (?, ?)`,
			value.Int(int64(i)), value.Str(hostdb.URL("fs1", path))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := dlfm.Upcaller().IsLinked(fmt.Sprintf("/f5/f%05d", i)); err != nil {
			t.Fatal(err)
		}
	}
	// The backup flushes the Copy daemon's queue; a lost file comes back
	// from the archive during the restore.
	backupID, err := st.Host.Backup()
	if err != nil {
		t.Fatal(err)
	}
	if err := st.FS["fs1"].Chmod("/f5/f00000", false); err != nil {
		t.Fatal(err)
	}
	if err := st.FS["fs1"].Delete("/f5/f00000"); err != nil {
		t.Fatal(err)
	}
	if err := st.Host.Restore(backupID); err != nil {
		t.Fatal(err)
	}
	if err := st.Host.DropTable("f5"); err != nil {
		t.Fatal(err)
	}
	for deadline := time.Now().Add(10 * time.Second); dlfm.Stats().GroupsDeleted == 0 && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
	}
	if err := dlfm.RunGC(); err != nil {
		t.Fatal(err)
	}
	ds := dlfm.Stats()
	for _, d := range []struct {
		what string
		n    int64
	}{
		{"child agents: links", ds.Links},
		{"Copy daemon: files archived", ds.ArchiveCopies},
		{"Chown daemon: takeover/release ops", ds.ChownOps},
		{"Upcall daemon: DLFF queries", ds.Upcalls},
		{"Delete Group daemon: groups", ds.GroupsDeleted},
	} {
		if d.n == 0 {
			t.Errorf("%s = 0; the daemon never worked", d.what)
		}
	}
}

// E13 (§3.3 and Gray & Lamport, Consensus on Transaction Commit): if the
// coordinator dies between the phases, a 2PC participant stays prepared,
// holding its locks, until the host resolves it. A Paxos Commit participant
// learns the outcome from the acceptors and settles on its own. An update's
// old and new file land on different members of a two-member cluster half
// the time, so an update-heavy mix prepares often. The two protocols run
// side by side: each one's crash point lies on a path the other never takes.
func shapeCommitProtocols(t *testing.T) {
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })
	t.Run("2pc", func(t *testing.T) {
		t.Parallel()
		if wedged := wedgedAfterCoordinatorCrashes(t, "2pc"); wedged == 0 {
			t.Error("2PC wedged no transaction; the coordinator-crash fault never bit")
		}
	})
	t.Run("paxos", func(t *testing.T) {
		t.Parallel()
		if wedged := wedgedAfterCoordinatorCrashes(t, "paxos"); wedged != 0 {
			t.Errorf("Paxos Commit left %d transactions wedged; participants did not learn the outcome from the acceptors", wedged)
		}
	})
}

// wedgedAfterCoordinatorCrashes runs a half-second update-heavy workload
// with the protocol's coordinator-crash fault armed at 15%, lets the host
// sit idle through a grace window, and returns how many transactions are
// still prepared. It then drains them through the host and checks the
// cross-system invariant.
func wedgedAfterCoordinatorCrashes(t *testing.T, proto string) int {
	paxos := proto == "paxos"
	st := testStack(t,
		func(c *StackConfig) {
			c.Servers = []string{"fs1", "fs2"}
			c.Cluster = true
			if paxos {
				c.PaxosAcceptors = 3
			}
		},
		withHost(func(h *hostdb.Config) {
			if paxos {
				h.CommitProtocol = "paxos"
			}
		}),
		withDLFM(func(c *core.Config) {
			// A short learner cadence keeps the grace window meaningful.
			c.LearnInterval = 20 * time.Millisecond
			c.LearnGrace = 100 * time.Millisecond
		}))

	point := "hostdb.commit.between_phases"
	if paxos {
		point = "hostdb.paxos.leader_crash"
	}
	fault.Default().Arm(point, fault.Action{}, fault.Prob(0.15))
	// No kills or drops: every wedged transaction is the coordinator crash's.
	_, err := RunChaos(st, ChaosConfig{
		Config: Config{
			Clients: 8, Duration: 500 * time.Millisecond, Seed: 1, PreloadRows: 50,
			Table: "cp", Mix: Mix{InsertPct: 20, UpdatePct: 70, DeletePct: 5},
		},
		SkipDrain: true,
	})
	fault.Default().Disarm(point)
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}

	// The grace window: the host runs no resolution. Under Paxos Commit the
	// DLFMs' learners consult the acceptors; under 2PC nothing moves.
	wedged := st.PreparedTxns()
	for deadline := time.Now().Add(3 * time.Second); wedged > 0 && time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		wedged = st.PreparedTxns()
	}

	// Now the host drains what is left, and the invariant must hold.
	if _, left, err := st.DrainIndoubts(); err != nil {
		t.Fatalf("%s: drain: %v", proto, err)
	} else if left > 0 {
		t.Fatalf("%s: %d transactions still prepared after the explicit drain", proto, left)
	}
	vs, err := CheckConsistency(st, "cp_0", "cp_1")
	if err != nil {
		t.Fatalf("%s: %v", proto, err)
	}
	for _, v := range vs {
		t.Errorf("%s: consistency violation after drain: %s", proto, v)
	}
	return wedged
}

// E16: one DLFM per file server makes failures cluster-shaped, so a single
// member's degraded log device must be localizable. Three members serve one
// cluster; every WAL fsync is modeled at 500µs except the victim's at 8ms.
// Each member is scraped over its own admin HTTP endpoint, Prometheus text
// parse included, while an open-loop storm runs.
func shapeFleetLocalization(t *testing.T) {
	const victim = "fs2"
	st := testStack(t, func(c *StackConfig) {
		c.Servers = []string{"fs1", "fs2", "fs3"}
		c.Cluster = true
		prev := c.MutateDLFM
		c.MutateDLFM = func(name string, d *core.Config) {
			prev(name, d)
			d.DB.WALSyncDelay = 500 * time.Microsecond
			if name == victim {
				d.DB.WALSyncDelay = 8 * time.Millisecond
			}
		}
	})

	// One admin server per member, as if each ran in its own process. The
	// host's carries the process-wide registry, where an open-loop run
	// publishes its latency series.
	var sources []fleet.Source
	for _, m := range []string{"host", "fs1", "fs2", "fs3"} {
		var extra []*obs.Registry
		if m == "host" {
			extra = append(extra, obs.Default())
		}
		srv, err := st.MemberAdmin(m, extra...).Start("127.0.0.1:0")
		if err != nil {
			t.Fatalf("admin for %s: %v", m, err)
		}
		t.Cleanup(func() { srv.Close() })
		sources = append(sources, fleet.NewHTTPSource(m, srv.Addr(), 2*time.Second))
	}
	var mu sync.Mutex
	var falseFlags []string
	plane := fleet.NewPlane(sources, fleet.HealthConfig{
		Interval:       120 * time.Millisecond,
		MinWindowCount: 4,
		FlagAfter:      2,
		ClearAfter:     10,
		SLOTarget:      50 * time.Millisecond,
		OnChange: func(member string, degraded bool, reason string) {
			// The router hook: a flagged member is deprioritized.
			st.Host.SetMemberDegraded(member, degraded)
			if degraded && member != victim {
				mu.Lock()
				falseFlags = append(falseFlags, member+": "+reason)
				mu.Unlock()
			}
		},
	})
	fleetSrv, err := plane.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { fleetSrv.Close() })
	fleetBase := "http://" + fleetSrv.Addr()

	// 400 arrivals at 400/s over a 64-session pool, 150 preloaded rows
	// spread over the three storm_i tables.
	storm, err := RunChaos(st, ChaosConfig{Config: Config{
		Clients: 64, Rate: 400, Sessions: 400, Seed: 164, PreloadRows: 50, Table: "storm",
	}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range storm.Violations {
		t.Errorf("storm: consistency violation: %s", v)
	}

	// On a slow machine the storm can end before the verdict. Stop the
	// ticker and drive the checks by hand, each after a round of commits
	// on every member, so every check sees a full window per member.
	plane.Watchdog.Stop()
	flagged := func() bool {
		for _, d := range plane.Watchdog.Degraded() {
			if d == victim {
				return true
			}
		}
		return false
	}
	seq := int64(50_000_000)
	for i := 0; i < 40 && !flagged(); i++ {
		for _, m := range []string{"fs1", "fs2", "fs3"} {
			for k := 0; k < 4; k++ {
				seq++
				if path, ok := pathOwnedBy(st, m, seq); ok {
					linkOnce(st, path, seq) //nolint:errcheck
				}
			}
		}
		plane.Watchdog.Check()
	}
	if !flagged() {
		t.Fatalf("watchdog never flagged %s", victim)
	}
	mu.Lock()
	for _, f := range falseFlags {
		t.Errorf("false flag on a healthy member: %s", f)
	}
	mu.Unlock()

	var health fleet.HealthReport
	getJSON(t, fleetBase+"/cluster/health", &health)
	if len(health.Degraded) != 1 || health.Degraded[0] != victim {
		t.Errorf("/cluster/health degraded = %v, want exactly [%s]", health.Degraded, victim)
	}
	if !st.Host.Cluster(st.ClusterName).IsDegraded(victim) {
		t.Errorf("host placement map does not list %s as degraded", victim)
	}

	// Stitching: a quiet transaction routed to the victim must blame its
	// WAL fsync.
	seq++
	path, ok := pathOwnedBy(st, victim, seq)
	if !ok {
		t.Fatalf("found no path owned by %s", victim)
	}
	trace, err := linkOnce(st, path, seq)
	if err != nil {
		t.Fatal(err)
	}
	if trace == 0 {
		t.Fatal("probe transaction got no trace id")
	}
	var stitched fleet.StitchedTrace
	getJSON(t, fmt.Sprintf("%s/cluster/txn/%d", fleetBase, trace), &stitched)
	if want := victim + "/wal_fsync"; stitched.Dominant != want {
		t.Errorf("stitched dominant = %q, want %q; timeline:\n%s", stitched.Dominant, want, strings.Join(stitched.Timeline, "\n"))
	}

	// Federation over the HTTP parse path: every aggregate counter equals
	// the sum of the member values in the same scrape.
	view := plane.Collector.Federate()
	for m, e := range view.Errors {
		t.Errorf("scrape error with every member up: %s: %s", m, e)
	}
	names := make([]string, 0, len(view.Agg.Counters))
	for n := range view.Agg.Counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var sum int64
		for _, snap := range view.Members {
			sum += snap.Counters[n]
		}
		if sum != view.Agg.Counters[n] {
			t.Errorf("federated %s = %d, member sum %d", n, view.Agg.Counters[n], sum)
		}
	}
	if view.Agg.Counters["engine_commits_total"] == 0 {
		t.Error("federated engine_commits_total is zero after the storm")
	}
}

// pathOwnedBy finds a path the cluster places on member.
func pathOwnedBy(st *Stack, member string, seq int64) (string, bool) {
	for n := 0; n < 512; n++ {
		path := fmt.Sprintf("/e16/%s-%d-%d", member, seq, n)
		if owners := st.Host.ReadOwners(st.ClusterName, path); len(owners) > 0 && owners[0] == member {
			return path, true
		}
	}
	return "", false
}

// linkOnce links path in one transaction on a storm table and returns
// the transaction id, which is the fleet-wide trace key.
func linkOnce(st *Stack, path string, id int64) (int64, error) {
	for _, fs := range st.CreateTargets(st.ClusterName, path) {
		fs.Create(path, "app", []byte("e16")) //nolint:errcheck
	}
	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO storm_0 (id, owner, doc) VALUES (?, ?, ?)`,
		value.Int(id), value.Int(0), value.Str(hostdb.URL(st.ClusterName, path))); err != nil {
		s.Rollback()
		return 0, err
	}
	trace := s.TxnID()
	return trace, s.Commit()
}
