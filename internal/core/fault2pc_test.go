package core_test

// External-package tests for the classic 2PC failure windows, driven
// through a full host + DLFM stack with the fault registry: participant
// crash after hardening its vote, coordinator crash between phases, and
// commit messages lost on the wire (Section 3.3; Gray & Lamport's failure
// enumeration). A transaction with one DLFM commits in one phase, so the
// 2PC windows are opened by transactions writing on fs1 and fs2. They share
// the process-wide fault registry with the instrumented packages, so none
// of them may run in parallel.

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/value"
	"repro/internal/workload"
)

// faultStack builds a two-DLFM deployment with a clean fault registry. The
// host drives prepare and phase 2 sequentially, fs1 first, so a fault that
// fires once lands on fs1.
func faultStack(t *testing.T, mutate func(*core.Config)) *workload.Stack {
	t.Helper()
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })
	st, err := workload.NewStack(workload.StackConfig{
		Servers: []string{"fs1", "fs2"},
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
			h.CommitFanout = 1
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
			if mutate != nil {
				mutate(c)
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// linkTable creates a table with two DATALINK columns, doc and doc2.
func linkTable(t *testing.T, st *workload.Stack, table string) {
	t.Helper()
	err := st.Host.CreateTable(
		fmt.Sprintf(`CREATE TABLE %s (id BIGINT NOT NULL, doc VARCHAR, doc2 VARCHAR)`, table),
		hostdb.DatalinkCol{Name: "doc"}, hostdb.DatalinkCol{Name: "doc2"},
	)
	if err != nil {
		t.Fatal(err)
	}
}

// beginLink creates a fresh file on fs1 and starts a host transaction that
// links it; the caller decides how the commit goes wrong.
func beginLink(t *testing.T, st *workload.Stack, table string, id int64) (*hostdb.Session, string) {
	return beginLinks(t, st, table, id, "fs1")
}

// beginLinks is beginLink linking the same path on each of servers (doc on
// the first, doc2 on the second) in one host row; it returns the path.
func beginLinks(t *testing.T, st *workload.Stack, table string, id int64, servers ...string) (*hostdb.Session, string) {
	t.Helper()
	path := fmt.Sprintf("/docs/%s%03d", table, id)
	params := []value.Value{value.Int(id), value.Null, value.Null}
	for i, server := range servers {
		if err := st.FS[server].Create(path, "app", []byte("content")); err != nil {
			t.Fatal(err)
		}
		params[i+1] = value.Str(hostdb.URL(server, path))
	}
	s := st.Host.Session()
	if _, err := s.Exec(fmt.Sprintf(`INSERT INTO %s (id, doc, doc2) VALUES (?, ?, ?)`, table), params...); err != nil {
		s.Close()
		t.Fatal(err)
	}
	return s, path
}

// fileState reads the dlfm_file entry for path on a quiesced server.
func fileState(t *testing.T, st *workload.Stack, path string) (state string, found bool) {
	t.Helper()
	c := st.DLFMs["fs1"].DB().Connect()
	rows, err := c.Query(`SELECT state FROM dlfm_file WHERE name = ? AND chkflag = 0`, value.Str(path))
	c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) == 0 {
		return "", false
	}
	return rows[0][0].Text(), true
}

// preparedCount totals 'P' entries in fs1's transaction table.
func preparedCount(t *testing.T, st *workload.Stack) int64 {
	t.Helper()
	c := st.DLFMs["fs1"].DB().Connect()
	n, _, err := c.QueryInt(`SELECT COUNT(*) FROM dlfm_txn WHERE state = 'P'`)
	c.Commit()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// hostRowCount counts the table's rows through a fresh session.
func hostRowCount(t *testing.T, st *workload.Stack, table string) int {
	t.Helper()
	s := st.Host.Session()
	defer s.Close()
	rows, err := s.Query(fmt.Sprintf(`SELECT id FROM %s`, table))
	if err != nil {
		t.Fatal(err)
	}
	s.Commit()
	return len(rows)
}

// TestDLFMCrashAfterPrepare is the participant-crash window: the DLFM dies
// after hardening its 'P' entry but before the vote reaches the host, and
// its endpoint stays dark through the host's abort attempts. The stranded
// transaction is indoubt until the resolution daemon applies presumed
// abort after the server restarts.
func TestDLFMCrashAfterPrepare(t *testing.T) {
	st := faultStack(t, nil)
	linkTable(t, st, "pc")
	s, path := beginLinks(t, st, "pc", 1, "fs1", "fs2")
	defer s.Close()

	fault.Default().Arm("core.prepare.after_local_commit", fault.Action{Crash: true}, fault.Times(1))
	// The dead process cannot hear the host's abort either: every Abort
	// send fails until the injector stands down.
	fault.Default().Arm("rpc.send.before", fault.Action{Drop: true}, fault.Match("Abort"))

	if err := s.Commit(); !errors.Is(err, hostdb.ErrTxnRolledBack) {
		t.Fatalf("commit through crashed prepare = %v, want ErrTxnRolledBack", err)
	}
	if n := preparedCount(t, st); n != 1 {
		t.Fatalf("prepared entries after crash = %d, want 1 (indoubt)", n)
	}

	// The operator restarts the DLFM; it recovers the hardened 'P' entry
	// from its log, and resolution finds no outcome row: presumed abort.
	fault.Default().Reset()
	st.Kill("fs1")
	st.Restart("fs1")
	n, err := st.Host.ResolveIndoubts()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ResolveIndoubts = %d, want 1", n)
	}
	if n := preparedCount(t, st); n != 0 {
		t.Errorf("prepared entries after resolution = %d, want 0", n)
	}
	if state, found := fileState(t, st, path); found {
		t.Errorf("dlfm_file entry survived presumed abort (state %q)", state)
	}
	if got := hostRowCount(t, st, "pc"); got != 0 {
		t.Errorf("host rows after rolled-back txn = %d, want 0", got)
	}
	status, err := st.DLFMs["fs1"].Upcaller().IsLinked(path)
	if err != nil || status.Linked {
		t.Errorf("IsLinked(%s) = %+v, %v, want unlinked", path, status, err)
	}
}

// TestCoordinatorCrashBeforePhase2 is the coordinator-crash window: the
// commit decision is durable in dl_outcome but no participant has heard
// it. The application sees a distinguished non-rollback error, and indoubt
// resolution re-drives the recorded commit.
func TestCoordinatorCrashBeforePhase2(t *testing.T) {
	st := faultStack(t, nil)
	linkTable(t, st, "cc")
	s, path := beginLinks(t, st, "cc", 1, "fs1", "fs2")
	defer s.Close()

	fault.Default().Arm("hostdb.commit.between_phases", fault.Action{}, fault.Times(1))
	err := s.Commit()
	if err == nil {
		t.Fatal("commit with coordinator crash = nil, want interrupted error")
	}
	if errors.Is(err, hostdb.ErrTxnRolledBack) {
		t.Fatalf("commit error %v claims rollback, but the outcome is recorded as commit", err)
	}
	if !strings.Contains(err.Error(), "interrupted before phase 2") {
		t.Fatalf("commit error = %v, want 'interrupted before phase 2'", err)
	}
	if n := preparedCount(t, st); n != 1 {
		t.Fatalf("prepared entries = %d, want 1 (phase 2 never ran)", n)
	}

	n, err := st.Host.ResolveIndoubts()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("ResolveIndoubts = %d, want 2 (both participants)", n)
	}
	if state, found := fileState(t, st, path); !found || state != "L" {
		t.Errorf("dlfm_file state = %q (found %v), want linked after re-driven commit", state, found)
	}
	if got := hostRowCount(t, st, "cc"); got != 1 {
		t.Errorf("host rows = %d, want 1 (the transaction committed)", got)
	}
	status, err := st.DLFMs["fs1"].Upcaller().IsLinked(path)
	if err != nil || !status.Linked {
		t.Errorf("IsLinked(%s) = %+v, %v, want linked", path, status, err)
	}
}

// TestConnDropMidCommitReissued is the lost-message window: the connection
// drops after the phase-2 Commit request is on the wire. Commit is
// idempotent, so the client silently re-issues it on a fresh connection
// and the application never notices.
func TestConnDropMidCommitReissued(t *testing.T) {
	st := faultStack(t, nil)
	linkTable(t, st, "cd")
	s, path := beginLinks(t, st, "cd", 1, "fs1", "fs2")
	defer s.Close()

	reissues := func() int64 { return st.Host.Obs().Export().Counters["rpc_reissues_total"] }
	reissuesBefore := reissues()
	fault.Default().Arm("rpc.recv.before", fault.Action{Drop: true}, fault.Match("Commit"), fault.Times(1))
	if err := s.Commit(); err != nil {
		t.Fatalf("commit through dropped connection = %v, want transparent re-issue", err)
	}
	if fired := fault.Default().Fired("rpc.recv.before"); fired != 1 {
		t.Fatalf("drop fired %d times, want 1", fired)
	}
	if reissues() == reissuesBefore {
		t.Error("reissue counter did not move; the commit was not re-issued")
	}
	if n := preparedCount(t, st); n != 0 {
		t.Errorf("prepared entries = %d, want 0", n)
	}
	if state, found := fileState(t, st, path); !found || state != "L" {
		t.Errorf("dlfm_file state = %q (found %v), want linked", state, found)
	}
}

// TestPhase2GiveupSurfacesWedgedTxn caps the paper's "keeps retrying until
// it succeeds" loop: with phase-2 work persistently failing on a retryable
// error, the agent gives up after Phase2MaxRetries, counts the wedged
// transaction, emits the trace event, and leaves the 'P' entry for the
// resolution daemon — which settles it once the contention clears.
func TestPhase2GiveupSurfacesWedgedTxn(t *testing.T) {
	st := faultStack(t, func(c *core.Config) {
		c.Phase2MaxRetries = 3
		c.Phase2Backoff = time.Millisecond
		c.Phase2BackoffCap = 2 * time.Millisecond
	})
	linkTable(t, st, "gv")
	s, path := beginLinks(t, st, "gv", 1, "fs1", "fs2")
	defer s.Close()

	// Three firings, all on fs1's phase 2 (fs2's comes after it).
	fault.Default().Arm("core.phase2.work", fault.Action{Err: engine.ErrTimeout}, fault.Match("commit"), fault.Times(3))
	// The host fires phase 2 and ignores the severe answer; the commit is
	// decided regardless of whether this DLFM managed to apply it.
	txn := s.TxnID()
	if err := s.Commit(); err != nil {
		t.Fatalf("commit = %v (phase-2 failures must not surface here)", err)
	}
	if g := st.DLFMs["fs1"].Stats().Phase2Giveups; g != 1 {
		t.Fatalf("Phase2Giveups = %d, want 1", g)
	}
	if fired := fault.Default().Fired("core.phase2.work"); fired != 3 {
		t.Errorf("phase-2 work attempts = %d, want 3 (the retry cap)", fired)
	}
	// The give-up is a mark in the transaction's own trace, so
	// /debug/txn/<id> shows it on the timeline beside the phase-2 spans.
	timeline := strings.Join(obs.RenderTree(st.Tracer.SpansByTrace(txn)), "\n")
	if !strings.Contains(timeline, "mark fs1/2pc/phase2_giveup detail=commit") ||
		!strings.Contains(timeline, "fs1/agent/handle:Commit") {
		t.Errorf("no 2pc/phase2_giveup mark in the transaction's timeline:\n%s", timeline)
	}
	if n := preparedCount(t, st); n != 1 {
		t.Fatalf("prepared entries = %d, want 1 (left for resolution)", n)
	}

	// Contention clears; resolution re-drives the recorded commit.
	fault.Default().Reset()
	n, err := st.Host.ResolveIndoubts()
	if err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("ResolveIndoubts = %d, want 1", n)
	}
	if state, found := fileState(t, st, path); !found || state != "L" {
		t.Errorf("dlfm_file state = %q (found %v), want linked", state, found)
	}
}

// TestPrepareLocalCommitFailureVotesNo: a failure hardening the prepare
// (the local database commit) must surface as a "no" vote, rolling the
// whole transaction back everywhere — nothing hardened, nothing indoubt.
// fs1 prepares first and hardens its vote; fs2's prepare is the commit that
// fails, so the host's abort must also compensate fs1's hardened entry.
func TestPrepareLocalCommitFailureVotesNo(t *testing.T) {
	st := faultStack(t, nil)
	linkTable(t, st, "vn")
	s, path := beginLinks(t, st, "vn", 1, "fs1", "fs2")
	defer s.Close()

	prepares := st.DLFMs["fs1"].Stats().Prepares
	before := st.DLFMs["fs2"].Stats().PrepareFails
	fault.Default().Arm("engine.txn.commit", fault.Action{}, fault.After(1), fault.Times(1))
	if err := s.Commit(); !errors.Is(err, hostdb.ErrTxnRolledBack) {
		t.Fatalf("commit with failed prepare = %v, want ErrTxnRolledBack", err)
	}
	if d := st.DLFMs["fs1"].Stats().Prepares - prepares; d != 1 {
		t.Errorf("fs1 Prepares delta = %d, want 1 (the transaction took two phases)", d)
	}
	if d := st.DLFMs["fs2"].Stats().PrepareFails - before; d != 1 {
		t.Errorf("fs2 PrepareFails delta = %d, want 1", d)
	}
	if n := preparedCount(t, st); n != 0 {
		t.Errorf("prepared entries = %d, want 0 (vote no leaves nothing behind)", n)
	}
	if state, found := fileState(t, st, path); found {
		t.Errorf("dlfm_file entry exists (state %q) after vote no", state)
	}
	if got := hostRowCount(t, st, "vn"); got != 0 {
		t.Errorf("host rows = %d, want 0", got)
	}
}

// TestUpcallErrorDeniesFilterOps: when the Upcall daemon cannot answer,
// the DLFF must fail closed — the operation is denied and neither the file
// nor its dlfm_file entry changes.
func TestUpcallErrorDeniesFilterOps(t *testing.T) {
	st := faultStack(t, nil)
	linkTable(t, st, "ue")
	s, path := beginLink(t, st, "ue", 1)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	filter := fsim.NewFilter(st.FS["fs1"], st.DLFMs["fs1"].Upcaller(), nil)
	fault.Default().Arm("daemon.upcall.work", fault.Action{})
	if _, err := filter.Open(path, ""); err == nil || !strings.Contains(err.Error(), "upcall failed") {
		t.Errorf("Open with failing upcall = %v, want denial", err)
	}
	if err := filter.Delete(path); err == nil || !strings.Contains(err.Error(), "upcall failed") {
		t.Errorf("Delete with failing upcall = %v, want denial", err)
	}
	if _, err := st.FS["fs1"].Stat(path); err != nil {
		t.Errorf("file vanished despite denied delete: %v", err)
	}
	if state, found := fileState(t, st, path); !found || state != "L" {
		t.Errorf("dlfm_file state = %q (found %v), want untouched L entry", state, found)
	}

	// The daemon heals the moment the injector stands down: the delete is
	// again refused, but now for the right reason — the file is linked.
	fault.Default().Reset()
	if err := filter.Delete(path); !errors.Is(err, fsim.ErrLinked) {
		t.Errorf("Delete of linked file = %v, want ErrLinked", err)
	}
}

// TestUpcallTimeout: a stalled Upcall daemon must not hang the file
// system; the upcall times out, the operation is denied, and the daemon
// recovers once the stall passes.
func TestUpcallTimeout(t *testing.T) {
	st := faultStack(t, func(c *core.Config) {
		c.UpcallTimeout = 30 * time.Millisecond
	})
	linkTable(t, st, "ut")
	s, path := beginLink(t, st, "ut", 1)
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	s.Close()

	fault.Default().Arm("daemon.upcall.work", fault.Action{Delay: 200 * time.Millisecond}, fault.Times(1))
	if _, err := st.DLFMs["fs1"].Upcaller().IsLinked(path); !errors.Is(err, core.ErrUpcallTimeout) {
		t.Fatalf("IsLinked with stalled daemon = %v, want ErrUpcallTimeout", err)
	}

	// The abandoned answer drains into its buffered reply channel; the
	// daemon then serves fresh upcalls again.
	deadline := time.Now().Add(2 * time.Second)
	for {
		status, err := st.DLFMs["fs1"].Upcaller().IsLinked(path)
		if err == nil {
			if !status.Linked {
				t.Errorf("IsLinked after recovery = %+v, want linked", status)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("upcall daemon never recovered: %v", err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
