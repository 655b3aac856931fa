package core

import (
	"errors"
	"sync"
	"testing"
	"time"

	"repro/internal/engine"
	"repro/internal/rpc"
)

func TestAccessors(t *testing.T) {
	h := newHarness(t)
	if h.srv.FS() != h.fs {
		t.Error("FS accessor")
	}
	if h.srv.Archive() != h.arch {
		t.Error("Archive accessor")
	}
	if h.srv.Name() != "fs1" {
		t.Error("Name accessor")
	}
	// Double Close is safe.
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestErrCodeMapping(t *testing.T) {
	cases := []struct {
		err  error
		want string
	}{
		{engine.ErrDeadlock, "deadlock"},
		{engine.ErrTimeout, "timeout"},
		{engine.ErrDuplicate, "duplicate"},
		{engine.ErrLogFull, "logfull"},
		{errors.New("anything else"), "severe"},
	}
	for _, c := range cases {
		if got := errCode(c.err); got != c.want {
			t.Errorf("errCode(%v) = %q, want %q", c.err, got, c.want)
		}
		resp := fail(c.err)
		if resp.Code != c.want || resp.Msg == "" {
			t.Errorf("fail(%v) = %+v", c.err, resp)
		}
	}
}

func TestAgentProtocolErrors(t *testing.T) {
	h := newHarness(t)
	a := h.agent
	// Txn id 0 is invalid everywhere.
	if resp := a.Handle(rpc.BeginTxnReq{Txn: 0}); resp.Code != "severe" {
		t.Errorf("begin txn 0: %+v", resp)
	}
	if resp := a.Handle(rpc.LinkFileReq{Txn: 0, Name: "/x"}); resp.Code != "severe" {
		t.Errorf("link txn 0: %+v", resp)
	}
	if resp := a.Handle(rpc.CommitReq{Txn: 0}); resp.Code != "severe" {
		t.Errorf("commit txn 0: %+v", resp)
	}
	// Double begin.
	h.must(a.Handle(rpc.BeginTxnReq{Txn: 7}))
	if resp := a.Handle(rpc.BeginTxnReq{Txn: 8}); resp.Code != "severe" {
		t.Errorf("double begin: %+v", resp)
	}
	// Mixed transaction ids on one agent.
	if resp := a.Handle(rpc.LinkFileReq{Txn: 9, Name: "/x"}); resp.Code != "severe" {
		t.Errorf("cross-txn link: %+v", resp)
	}
	if resp := a.Handle(rpc.CommitReq{Txn: 9}); resp.Code != "severe" {
		t.Errorf("cross-txn commit: %+v", resp)
	}
	if resp := a.Handle(rpc.AbortReq{Txn: 9}); resp.Code != "severe" {
		t.Errorf("cross-txn abort: %+v", resp)
	}
	h.must(a.Handle(rpc.AbortReq{Txn: 7}))
	// Unknown request type.
	if resp := a.Handle(struct{ X int }{1}); resp.Code != "severe" {
		t.Errorf("unknown request: %+v", resp)
	}
	// Ping and Stats.
	if resp := a.Handle(rpc.PingReq{}); !resp.OK() || resp.Msg == "" {
		t.Errorf("ping: %+v", resp)
	}
	if resp := a.Handle(rpc.StatsReq{}); !resp.OK() {
		t.Errorf("stats: %+v", resp)
	}
}

func TestAgentCloseRollsBackInFlight(t *testing.T) {
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	h.createFile("/a", "alice", "x")
	a := h.newAgent()
	txn := h.nextTxn()
	h.must(a.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(a.Handle(rpc.LinkFileReq{Txn: txn, Name: "/a", RecID: h.nextRec(), Grp: 1}))
	a.Close() // host disconnected
	if _, found := h.linkedState("/a"); found {
		t.Fatal("in-flight link survived agent close")
	}
}

func TestPrepareFailsOnDuplicateTxnEntry(t *testing.T) {
	// Two prepares of the same txn id: the second hits the unique index on
	// dlfm_txn and votes no.
	h := newHarness(t)
	h.createFile("/a", "alice", "x")
	h.createFile("/b", "alice", "x")
	h.createGroup(h.agent, 1, false, false)
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: "/a", RecID: h.nextRec(), Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))

	// The second agent writes too; a read-only one would vote read-only.
	other := h.newAgent()
	h.must(other.Handle(rpc.LinkFileReq{Txn: txn, Name: "/b", RecID: h.nextRec(), Grp: 1}))
	resp := other.Handle(rpc.PrepareReq{Txn: txn})
	if resp.OK() {
		t.Fatalf("second prepare of same txn succeeded: %+v", resp)
	}
	if h.srv.Stats().PrepareFails == 0 {
		t.Error("PrepareFails not counted")
	}
	// Clean up.
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))
}

func TestRegisterBackupDuplicateID(t *testing.T) {
	h := newHarness(t)
	h.must(h.agent.Handle(rpc.RegisterBackupReq{BackupID: 1, RecID: 10}))
	resp := h.agent.Handle(rpc.RegisterBackupReq{BackupID: 1, RecID: 20})
	if resp.OK() {
		t.Fatal("duplicate backup id accepted")
	}
}

func TestUpcallUnknownFile(t *testing.T) {
	h := newHarness(t)
	st, err := h.srv.Upcaller().IsLinked("/never-seen")
	if err != nil {
		t.Fatal(err)
	}
	if st.Linked || st.FullControl {
		t.Fatalf("unknown file reported linked: %+v", st)
	}
}

func TestPhase2CommitRetriesThroughContention(t *testing.T) {
	// A competing local transaction holds the lock phase-2 commit needs;
	// the commit must retry until the blocker goes away (Figure 4).
	h := newHarness(t, func(c *Config) {
		c.DB.LockTimeout = 30 * time.Millisecond
	})
	h.createGroup(h.agent, 1, true, true)
	h.createFile("/a", "alice", "x")
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: "/a", RecID: h.nextRec(), Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))

	blocker := h.srv.DB().Connect()
	if _, err := blocker.Exec(`UPDATE dlfm_file SET owner = 'blk' WHERE name = '/a'`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var resp rpc.Response
	go func() {
		defer wg.Done()
		resp = h.agent.Handle(rpc.CommitReq{Txn: txn})
	}()
	time.Sleep(100 * time.Millisecond) // several retry cycles
	blocker.Rollback()
	wg.Wait()
	if !resp.OK() {
		t.Fatalf("commit after blocker release: %+v", resp)
	}
	if h.srv.Stats().Phase2Retries == 0 {
		t.Fatal("no phase-2 retries recorded")
	}
	if st, _ := h.linkedState("/a"); st != "L" {
		t.Fatal("link lost")
	}
}

func TestPhase2AbortRetriesThroughContention(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.DB.LockTimeout = 30 * time.Millisecond
	})
	h.createGroup(h.agent, 1, true, true)
	h.createFile("/a", "alice", "x")
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: "/a", RecID: h.nextRec(), Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))

	blocker := h.srv.DB().Connect()
	if _, err := blocker.Exec(`UPDATE dlfm_file SET owner = 'blk' WHERE name = '/a'`); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	var resp rpc.Response
	go func() {
		defer wg.Done()
		resp = h.agent.Handle(rpc.AbortReq{Txn: txn})
	}()
	time.Sleep(100 * time.Millisecond)
	blocker.Rollback()
	wg.Wait()
	if !resp.OK() {
		t.Fatalf("abort after blocker release: %+v", resp)
	}
	if _, found := h.linkedState("/a"); found {
		t.Fatal("compensation did not remove the link")
	}
	if h.srv.Stats().Phase2Retries == 0 {
		t.Fatal("no phase-2 retries recorded")
	}
}

func TestDeleteGroupRescanAfterRestart(t *testing.T) {
	// The daemon's periodic rescan (not just the notify channel) must find
	// committed drop transactions — exercised here via a fast GC interval.
	h := newHarness(t, func(c *Config) {
		c.GCInterval = 5 * time.Millisecond
		c.CopyInterval = 5 * time.Millisecond
	})
	h.createGroup(h.agent, 1, false, false)
	h.createFile("/a", "alice", "x")
	h.linkCommitted(h.agent, "/a", 1)

	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.DeleteGroupReq{Txn: txn, Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if st, found := h.linkedState("/a"); !found || st != "L" {
			return // daemon unlinked it
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("delete-group daemon never processed the committed transaction")
}

func TestReconcileLengthMismatch(t *testing.T) {
	h := newHarness(t)
	resp := h.agent.Handle(rpc.ReconcileReq{Names: []string{"/a"}, RecIDs: nil})
	if resp.OK() {
		t.Fatal("mismatched reconcile accepted")
	}
}

func TestWaitArchiveNoPending(t *testing.T) {
	h := newHarness(t)
	resp := h.must(h.agent.Handle(rpc.WaitArchiveReq{RecID: 1 << 60}))
	if resp.N != 0 {
		t.Fatalf("flushed = %d with empty queue", resp.N)
	}
}

func TestRestoreToEmptyDLFM(t *testing.T) {
	h := newHarness(t)
	h.must(h.agent.Handle(rpc.RestoreToReq{RecID: 12345}))
}

func TestLinkedStateHelperColumns(t *testing.T) {
	// Pin the dlfm_file column layout the diagnostic helpers rely on.
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	h.createFile("/a", "alice", "x")
	h.linkCommitted(h.agent, "/a", 1)
	rows, err := h.srv.DB().DumpTable("dlfm_file")
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || len(rows[0]) != 10 {
		t.Fatalf("dlfm_file layout changed: %v", rows)
	}
	if rows[0][0].Text() != "/a" || rows[0][6].Text() != "L" || rows[0][9].Text() != "alice" {
		t.Fatalf("column positions changed: %v", rows[0])
	}
}

func TestBatchCommitPreservesValue(t *testing.T) {
	// A batched txn whose op count is not a batch multiple: the tail is
	// hardened at prepare.
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	for i := 0; i < 7; i++ {
		h.createFile(fmtName(i), "alice", "x")
	}
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn, Batched: true, BatchN: 3}))
	for i := 0; i < 7; i++ {
		h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: fmtName(i), RecID: h.nextRec(), Grp: 1}))
	}
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'L'`); n != 7 {
		t.Fatalf("linked = %d, want 7", n)
	}
}

func TestCheckStatsGuardDisabled(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.StatsGuard = false })
	h.srv.DB().Runstats("dlfm_file")
	if h.srv.CheckStatsGuard() {
		t.Fatal("disabled guard repaired stats")
	}
}

func TestGroupLookupMissing(t *testing.T) {
	h := newHarness(t)
	conn := h.srv.DB().Connect()
	g, err := h.srv.groupInfo(conn, 999)
	if err != nil || g != nil {
		t.Fatalf("groupInfo(999) = %+v, %v", g, err)
	}
	conn.Commit()
}
