package core

import (
	"testing"
	"time"

	"repro/internal/fsim"
	"repro/internal/rpc"
)

func TestDeleteGroupDaemonUnlinksAllFiles(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.ManualDeleteGroup = true })
	h.createGroup(h.agent, 1, true, true)
	const n = 25
	for i := 0; i < n; i++ {
		h.createFile(fmtName(i), "alice", "data")
		h.linkCommitted(h.agent, fmtName(i), 1)
	}
	h.drainCopies()

	// DROP TABLE on the host side: delete the group, 2PC commit.
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.DeleteGroupReq{Txn: txn, Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))

	// The transaction entry survives commit (state 'C') so the daemon can
	// resume after a crash; the daemon then unlinks everything.
	if err := h.srv.RunDeleteGroup(txn, 10); err != nil {
		t.Fatal(err)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'L'`); n != 0 {
		t.Fatalf("linked entries after delete-group = %d", n)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_txn`); n != 0 {
		t.Fatalf("txn entries after delete-group = %d", n)
	}
	// Files were released back to their owner.
	fi, _ := h.fs.Stat(fmtName(3))
	if fi.Owner != "alice" || fi.ReadOnly {
		t.Fatalf("file not released: %+v", fi)
	}
	// The group is a tombstone awaiting GC.
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_group WHERE state = 'G'`); n != 1 {
		t.Fatalf("tombstoned groups = %d", n)
	}
	if h.srv.Stats().GroupsDeleted != 1 {
		t.Fatalf("GroupsDeleted = %d", h.srv.Stats().GroupsDeleted)
	}
}

func TestDeleteGroupAbortRestoresGroup(t *testing.T) {
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	h.createFile("/a", "alice", "x")
	h.linkCommitted(h.agent, "/a", 1)

	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.DeleteGroupReq{Txn: txn, Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.AbortReq{Txn: txn}))

	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_group WHERE state = 'A'`); n != 1 {
		t.Fatalf("active groups after abort = %d", n)
	}
	if st, _ := h.linkedState("/a"); st != "L" {
		t.Fatal("file lost its link on group-delete abort")
	}
	// Group is usable again.
	h.createFile("/b", "alice", "y")
	h.linkCommitted(h.agent, "/b", 1)
}

func TestDeleteGroupResumeAfterCrash(t *testing.T) {
	// "if DLFM fails while Delete group daemon is working asynchronously,
	// then after DLFM restart the Delete group daemon can still pickup all
	// committed transaction entries from transaction table and resume."
	h := newHarness(t, func(c *Config) { c.ManualDeleteGroup = true })
	h.createGroup(h.agent, 1, false, false)
	for i := 0; i < 10; i++ {
		h.createFile(fmtName(i), "alice", "x")
		h.linkCommitted(h.agent, fmtName(i), 1)
	}
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.DeleteGroupReq{Txn: txn, Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))

	// Crash before the daemon had a chance to run.
	if err := h.srv.Crash(); err != nil {
		t.Fatal(err)
	}
	// The committed entry survived; resume processing.
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_txn WHERE state = 'C'`); n != 1 {
		t.Fatalf("committed txn entries after crash = %d", n)
	}
	if err := h.srv.RunDeleteGroup(txn, 5); err != nil {
		t.Fatal(err)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'L'`); n != 0 {
		t.Fatalf("linked entries after resumed delete-group = %d", n)
	}
}

func TestRelinkBlockedWhileDeleteGroupPending(t *testing.T) {
	// "as long as this transaction does not commit, the same file name is
	// not allowed to be re-linked" — until the daemon unlinks a file its
	// linked entry persists, so the unique index rejects a new link.
	h := newHarness(t, func(c *Config) { c.ManualDeleteGroup = true })
	h.createGroup(h.agent, 1, false, false)
	h.createGroup(h.agent, 2, false, false)
	h.createFile("/a", "alice", "x")
	h.linkCommitted(h.agent, "/a", 1)

	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.DeleteGroupReq{Txn: txn, Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))

	// Daemon has not run yet: relink under group 2 must fail.
	txn2 := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn2}))
	if resp := h.agent.Handle(rpc.LinkFileReq{Txn: txn2, Name: "/a", RecID: h.nextRec(), Grp: 2}); resp.Code != "duplicate" {
		t.Fatalf("relink while pending: %+v", resp)
	}
	h.must(h.agent.Handle(rpc.AbortReq{Txn: txn2}))

	if err := h.srv.RunDeleteGroup(txn, 10); err != nil {
		t.Fatal(err)
	}
	// Now the relink succeeds.
	h.linkCommitted(h.agent, "/a", 2)
}

func TestGCExpiredGroups(t *testing.T) {
	h := newHarness(t, func(c *Config) {
		c.GroupLifespan = 0 // expire immediately
		c.ManualDeleteGroup = true
	})
	h.createGroup(h.agent, 1, true, false)
	h.createFile("/a", "alice", "x")
	rec := h.linkCommitted(h.agent, "/a", 1)
	h.drainCopies()
	if !h.arch.Exists("/a", rec) {
		t.Fatal("no archive copy")
	}

	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.DeleteGroupReq{Txn: txn, Grp: 1}))
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))
	if err := h.srv.RunDeleteGroup(txn, 10); err != nil {
		t.Fatal(err)
	}
	if err := h.srv.RunGC(); err != nil {
		t.Fatal(err)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_group`); n != 0 {
		t.Fatalf("groups after GC = %d", n)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file`); n != 0 {
		t.Fatalf("file entries after GC = %d", n)
	}
	if h.arch.Exists("/a", rec) {
		t.Fatal("archive copy survived GC of its group")
	}
}

func TestGCBackupRetention(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.KeepBackups = 2 })
	h.createGroup(h.agent, 1, true, true)
	h.createFile("/a", "alice", "v1")
	recLink := h.linkCommitted(h.agent, "/a", 1)
	h.drainCopies()

	agent := h.agent
	// Backup 1 at the current watermark.
	h.must(agent.Handle(rpc.RegisterBackupReq{BackupID: 1, RecID: h.nextRec()}))
	// Unlink /a (its unlinked entry is needed to restore to backup 1).
	recUnlink := h.unlinkCommitted(agent, "/a", 1)
	// Backups 2 and 3.
	h.must(agent.Handle(rpc.RegisterBackupReq{BackupID: 2, RecID: h.nextRec()}))
	h.must(agent.Handle(rpc.RegisterBackupReq{BackupID: 3, RecID: h.nextRec()}))

	if err := h.srv.RunGC(); err != nil {
		t.Fatal(err)
	}
	// Backup 1 aged out; the unlinked entry (unlinked at recUnlink, before
	// backup 2's watermark) is no longer needed and is gone, along with
	// its archive copy.
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_backup`); n != 2 {
		t.Fatalf("backups after GC = %d, want 2", n)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'U'`); n != 0 {
		t.Fatalf("unlinked entries after GC = %d, want 0", n)
	}
	if h.arch.Exists("/a", recLink) {
		t.Fatal("archive copy survived retention GC")
	}
	_ = recUnlink
	if h.srv.Stats().BackupsGCed != 1 || h.srv.Stats().FilesGCed != 1 {
		t.Fatalf("stats = %+v", h.srv.Stats())
	}
}

func TestGCRetentionKeepsNeededEntries(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.KeepBackups = 2 })
	h.createGroup(h.agent, 1, true, false)
	h.createFile("/a", "alice", "v1")
	h.linkCommitted(h.agent, "/a", 1)
	h.drainCopies()
	// Backups 1,2 then unlink then backup 3: the unlinked entry is still
	// needed by backup 2 (watermark before the unlink).
	h.must(h.agent.Handle(rpc.RegisterBackupReq{BackupID: 1, RecID: h.nextRec()}))
	h.must(h.agent.Handle(rpc.RegisterBackupReq{BackupID: 2, RecID: h.nextRec()}))
	h.unlinkCommitted(h.agent, "/a", 1)
	h.must(h.agent.Handle(rpc.RegisterBackupReq{BackupID: 3, RecID: h.nextRec()}))

	if err := h.srv.RunGC(); err != nil {
		t.Fatal(err)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'U'`); n != 1 {
		t.Fatalf("unlinked entries = %d, want 1 (still needed by backup 2)", n)
	}
}

func TestUpcallDaemonAndDLFF(t *testing.T) {
	h := newHarness(t)
	secret := []byte("host-secret")
	filter := fsim.NewFilter(h.fs, h.srv.Upcaller(), secret)

	h.createGroup(h.agent, 1, false, false) // partial control
	h.createFile("/a", "alice", "x")
	h.createFile("/free", "bob", "y")
	h.linkCommitted(h.agent, "/a", 1)

	// DLFF rejects delete/rename of the linked file via the upcall.
	if err := filter.Delete("/a"); err == nil {
		t.Fatal("delete of linked file allowed")
	}
	if err := filter.Rename("/a", "/b"); err == nil {
		t.Fatal("rename of linked file allowed")
	}
	// Partial control: open without token is fine.
	if _, err := filter.Open("/a", ""); err != nil {
		t.Fatal(err)
	}
	// Unlinked files are untouched.
	if err := filter.Delete("/free"); err != nil {
		t.Fatal(err)
	}
	// After unlink, operations are allowed again.
	h.unlinkCommitted(h.agent, "/a", 1)
	if err := filter.Delete("/a"); err != nil {
		t.Fatalf("delete after unlink: %v", err)
	}
	if h.srv.Stats().Upcalls == 0 {
		t.Fatal("no upcalls recorded")
	}
}

func TestFullControlOpenNeedsToken(t *testing.T) {
	h := newHarness(t)
	secret := []byte("host-secret")
	filter := fsim.NewFilter(h.fs, h.srv.Upcaller(), secret)
	h.createGroup(h.agent, 1, true, true) // full control
	h.createFile("/a", "alice", "payload")
	h.linkCommitted(h.agent, "/a", 1)

	if _, err := filter.Open("/a", ""); err == nil {
		t.Fatal("full-control open without token succeeded")
	}
	tok := fsim.MintToken(secret, "/a", time.Now().Unix()+60)
	got, err := filter.Open("/a", tok)
	if err != nil || string(got) != "payload" {
		t.Fatalf("open with token: %q %v", got, err)
	}
}

func TestWaitArchiveFlushesWithPriority(t *testing.T) {
	h := newHarness(t)
	h.createGroup(h.agent, 1, true, false)
	var lastRec int64
	for i := 0; i < 5; i++ {
		h.createFile(fmtName(i), "alice", "x")
		lastRec = h.linkCommitted(h.agent, fmtName(i), 1)
	}
	// Some copies may already have been drained by the commit-time kick;
	// WaitArchive must flush whatever remains before returning.
	h.must(h.agent.Handle(rpc.WaitArchiveReq{RecID: lastRec}))
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_archive`); n != 0 {
		t.Fatalf("archive queue after WaitArchive = %d", n)
	}
	if h.arch.Count() != 5 {
		t.Fatalf("archive copies = %d", h.arch.Count())
	}
}

func TestBatchedTransactionCommitsEveryN(t *testing.T) {
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	for i := 0; i < 25; i++ {
		h.createFile(fmtName(i), "alice", "x")
	}
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn, Batched: true, BatchN: 10}))
	for i := 0; i < 25; i++ {
		h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: fmtName(i), RecID: h.nextRec(), Grp: 1}))
	}
	// Two intermediate commits (at 10 and 20) have happened; the in-flight
	// entry is in dlfm_txn with state 'F'.
	if h.srv.Stats().BatchCommits != 2 {
		t.Fatalf("BatchCommits = %d, want 2", h.srv.Stats().BatchCommits)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_txn WHERE txnid = ?`, txn); n != 1 {
		t.Fatalf("in-flight entries = %d", n)
	}
	h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
	h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file WHERE state = 'L'`); n != 25 {
		t.Fatalf("linked files = %d", n)
	}
}

func TestBatchedTransactionAbortCompensatesCommittedPieces(t *testing.T) {
	// The hard part of batching: pieces already locally committed must be
	// undone by compensation when the global transaction aborts.
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	for i := 0; i < 15; i++ {
		h.createFile(fmtName(i), "alice", "x")
	}
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.BeginTxnReq{Txn: txn, Batched: true, BatchN: 5}))
	for i := 0; i < 15; i++ {
		h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: fmtName(i), RecID: h.nextRec(), Grp: 1}))
	}
	h.must(h.agent.Handle(rpc.AbortReq{Txn: txn}))
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_file`); n != 0 {
		t.Fatalf("file entries after batched abort = %d, want 0", n)
	}
	if n := h.countRows(`SELECT COUNT(*) FROM dlfm_txn`); n != 0 {
		t.Fatalf("txn entries after batched abort = %d", n)
	}
}

// TestNoRecoveryCommitSkipsCopyScan: committing a link into a group without
// recovery queues no archive copy, so it must not wake the Copy daemon,
// whose batch query scans the whole Archive table — the per-link table scan
// the benchmark found. A recovery group's commit still wakes it. The
// Delete Group daemon is manual, so its start-up rescan cannot land inside
// the counted window.
func TestNoRecoveryCommitSkipsCopyScan(t *testing.T) {
	h := newHarness(t, func(c *Config) { c.ManualDeleteGroup = true })
	// Stand in for the Copy daemon so its wake-ups can be counted.
	h.srv.copyd.stop()
	copyd := &copyDaemon{srv: h.srv, kickCh: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	close(copyd.done)
	h.srv.copyd = copyd
	woken := func() bool {
		select {
		case <-copyd.kickCh:
			return true
		default:
			return false
		}
	}
	h.createGroup(h.agent, 1, false, false)
	h.createGroup(h.agent, 2, true, false)
	woken()

	scans := h.srv.DB().Stats().TableScans
	h.createFile("/plain/a", "app", "x")
	h.linkCommitted(h.agent, "/plain/a", 1) // 2PC phase 2
	h.createFile("/plain/b", "app", "x")
	txn := h.nextTxn()
	h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: "/plain/b", RecID: h.nextRec(), Grp: 1}))
	h.must(h.agent.Handle(rpc.OnePhaseCommitReq{Txn: txn}))
	if d := h.srv.DB().Stats().TableScans - scans; d != 0 {
		t.Errorf("committing links into a no-recovery group took %d table scans, want 0", d)
	}
	if woken() {
		t.Error("a commit with no archive copy woke the Copy daemon")
	}

	h.createFile("/kept/a", "app", "x")
	h.linkCommitted(h.agent, "/kept/a", 2)
	if !woken() {
		t.Error("a commit that queued an archive copy did not wake the Copy daemon")
	}
}
