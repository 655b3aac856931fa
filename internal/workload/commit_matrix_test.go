package workload

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostdb"
	"repro/internal/value"
)

// commitDelta is the change of the host's commit counters one transaction
// causes.
type commitDelta struct {
	Commits, Aborts, OnePhase, ReadOnly, Paxos int64
}

func commitCounters(st *Stack) commitDelta {
	s := st.Host.Stats()
	return commitDelta{s.Commits, s.Aborts, s.OnePhaseCommits, s.ReadOnlyVotes, s.PaxosCommits}
}

// shapeFault is one fault point a commit shape arms around its commit. A
// matched point fires once unless repeat is set.
type shapeFault struct {
	point, match string
	act          fault.Action
	repeat       bool
}

// commitShape is one row of the commit-shape matrix: a deployment, the
// transaction driven through it, and what the commit must leave behind.
type commitShape struct {
	name    string
	servers []string
	paxos   bool
	link    []int    // DATALINK columns linked: 1 → fs1, 2 → fs2
	enlist  []string // servers enlisted without writing
	faults  []shapeFault
	xa      bool // PrepareGlobal + CommitGlobal instead of Commit
	restart bool // the host crashes and restarts after the commit call
	// load, when set, replaces the transaction: the Load utility links that
	// many files on fs1 in a batched transaction committing locally every
	// two operations.
	load int
	// unlink adds an unlink to the transaction. Table cu on fs1 has a
	// recovery column r and a full-control column n without recovery; a
	// committed row links /cu/old in n, and the transaction deletes that
	// row and links /cu/new in r. The commit must purge the marked entry of
	// /cu/old and release the file, ready /cu/new's archive copy and make
	// the file read-only.
	unlink bool
	// backout: before the unlink, a statement links /cu/tmp and then fails
	// on a missing file, so the host backs its link out at fs1.
	backout bool
	// dlfmRestart: fs1 crashes and restarts between PrepareGlobal and
	// CommitGlobal (xa only), so a fresh agent runs phase 2.
	dlfmRestart bool

	wantErr     error // nil, or the error class Commit returns
	want        commitDelta
	wantOutcome bool // a dl_outcome row records the decision
	wantParked  int
}

// TestCommitShapeMatrix drives one transaction per commit shape the host
// supports — one-phase (the default for one DLFM), 2PC, read-only votes,
// Paxos Commit and an XA branch, each clean and in its failure branches —
// and pins the error class, the counter deltas, whether a dl_outcome row
// records the decision, and that indoubt resolution leaves every DLFM
// settled and the cross-system invariant intact.
func TestCommitShapeMatrix(t *testing.T) {
	fs1, fs12 := []string{"fs1"}, []string{"fs1", "fs2"}
	// The DLFM answers the late request only after the host has given up
	// on it and queried the outcome.
	late := []shapeFault{
		{point: "rpc.server.handle", match: "OnePhaseCommit", act: fault.Action{Delay: 200 * time.Millisecond}},
		{point: "rpc.recv.before", match: "OnePhaseCommit", act: fault.Action{Drop: true}},
	}
	shapes := []commitShape{
		// One writing DLFM commits in one phase by default.
		{name: "1pc committed", servers: fs1, link: []int{1},
			want: commitDelta{Commits: 1, OnePhase: 1}},
		// A lone writer takes two phases only beside another enlisted
		// DLFM; here the writer is the second server, the voter the first.
		{name: "2pc one writer", servers: fs12, link: []int{2}, enlist: []string{"fs1"},
			want: commitDelta{Commits: 1, ReadOnly: 1}, wantOutcome: true},
		{name: "2pc two writers", servers: fs12, link: []int{1, 2},
			want: commitDelta{Commits: 1}, wantOutcome: true},
		{name: "writer + read-only voter", servers: fs12, link: []int{1}, enlist: []string{"fs2"},
			want: commitDelta{Commits: 1, ReadOnly: 1}, wantOutcome: true},
		{name: "all read-only", servers: fs12, enlist: fs12,
			want: commitDelta{Commits: 1, ReadOnly: 2}},
		{name: "1pc refused", servers: fs1, link: []int{1},
			faults:  []shapeFault{{point: "rpc.server.handle", match: "OnePhaseCommit"}},
			wantErr: hostdb.ErrTxnRolledBack, want: commitDelta{Aborts: 1}},
		{name: "1pc lost reply resolved by query", servers: fs1, link: []int{1},
			// The delay lets the DLFM commit before the connection drops,
			// so only the reply is lost — and the Delete Group daemon
			// rescans many times before the host asks.
			faults: []shapeFault{{point: "rpc.recv.before", match: "OnePhaseCommit",
				act: fault.Action{Drop: true, Delay: 200 * time.Millisecond}}},
			want: commitDelta{Commits: 1, OnePhase: 1}},
		{name: "1pc late request refused after none", servers: fs1, link: []int{1}, faults: late,
			wantErr: hostdb.ErrTxnRolledBack, want: commitDelta{Aborts: 1}},
		{name: "1pc reply lost and the DLFM unreachable", servers: fs1, link: []int{1},
			// The DLFM commits, then cannot be asked: the host branch stays
			// prepared, and resolution commits it once the DLFM answers.
			faults: []shapeFault{
				{point: "rpc.recv.before", match: "OnePhaseCommit", act: fault.Action{Drop: true, Delay: 200 * time.Millisecond}},
				{point: "rpc.send.before", match: "QueryOutcome", act: fault.Action{Drop: true}, repeat: true},
			},
			wantErr: hostdb.ErrOutcomeUnknown},
		{name: "host crash before the 1pc commit", servers: fs1, link: []int{1}, restart: true,
			faults:  []shapeFault{{point: "hostdb.onephase.crash", match: "pre"}},
			wantErr: hostdb.ErrOutcomeUnknown},
		{name: "host crash after the 1pc commit", servers: fs1, link: []int{1}, restart: true,
			faults:  []shapeFault{{point: "hostdb.onephase.crash", match: "post"}},
			wantErr: hostdb.ErrOutcomeUnknown},
		{name: "1pc batched load, commit request lost with its agent", servers: fs1, load: 5,
			// The agent dies with the request unhandled: its intermediate
			// commits are in flight ('F') with nobody left to finish them, so
			// the query compensates them and answers "none".
			faults:  []shapeFault{{point: "rpc.server.handle", match: "OnePhaseCommit", act: fault.Action{Drop: true}}},
			wantErr: hostdb.ErrTxnRolledBack, want: commitDelta{Aborts: 1}},
		{name: "paxos two writers", servers: fs12, paxos: true, link: []int{1, 2},
			want: commitDelta{Commits: 1, Paxos: 1}, wantOutcome: true},
		{name: "paxos every acceptor down", servers: fs12, paxos: true, link: []int{1, 2},
			faults:  []shapeFault{{point: "paxos.accept_drop", act: fault.Action{Drop: true}}},
			wantErr: hostdb.ErrTxnRolledBack, want: commitDelta{Aborts: 1}, wantParked: 1},
		{name: "xa commit", servers: fs1, link: []int{1}, xa: true,
			want: commitDelta{Commits: 1}},
		// Unlinks in one phase: the agent commits from its own log, or
		// re-reads the rows when a backout makes the log stale; a
		// prepared transaction's phase 2 always re-reads them.
		{name: "1pc link with recovery, unlink without", servers: fs1, unlink: true,
			want: commitDelta{Commits: 1, OnePhase: 1}},
		{name: "1pc unlink after a statement backout", servers: fs1, unlink: true, backout: true,
			want: commitDelta{Commits: 1, OnePhase: 1}},
		{name: "xa unlink, DLFM restart before phase 2", servers: fs1, unlink: true, xa: true, dlfmRestart: true,
			want: commitDelta{Commits: 1}},
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) { runCommitShape(t, sh) })
	}
}

func runCommitShape(t *testing.T, sh commitShape) {
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })
	cfg := StackConfig{
		Servers: sh.servers,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
			h.LoadBatchN = 2
			if sh.paxos {
				h.CommitProtocol = "paxos"
			}
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
			// The Delete Group daemon rescans the transaction table every
			// 5 ms; an outcome the host may still ask for must survive it.
			c.GCInterval = 5 * time.Millisecond
		},
	}
	if sh.paxos {
		cfg.PaxosAcceptors = 3
	}
	st, err := NewStack(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	if err := st.Host.CreateTable("CREATE TABLE cm (id BIGINT, c1 VARCHAR, c2 VARCHAR)",
		hostdb.DatalinkCol{Name: "c1"}, hostdb.DatalinkCol{Name: "c2"}); err != nil {
		t.Fatal(err)
	}

	if sh.unlink {
		setupUnlinkShape(t, st)
	}

	s := st.Host.Session()
	params := []value.Value{value.Int(1), value.Null, value.Null}
	for _, col := range sh.link {
		server := fmt.Sprintf("fs%d", col)
		if err := st.FS[server].Create("/cm/f", "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
		params[col] = value.Str(hostdb.URL(server, "/cm/f"))
	}
	if len(sh.link) > 0 {
		if _, err := s.Exec(`INSERT INTO cm (id, c1, c2) VALUES (?, ?, ?)`, params...); err != nil {
			t.Fatal(err)
		}
	}
	var loadRows []value.Row
	for i := 0; i < sh.load; i++ {
		path := fmt.Sprintf("/cm/l%d", i)
		if err := st.FS["fs1"].Create(path, "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
		loadRows = append(loadRows, value.Row{value.Int(int64(10 + i)), value.Str(hostdb.URL("fs1", path))})
	}
	backouts := st.DLFMs["fs1"].Stats().Backouts
	if sh.backout {
		if _, err := s.Exec(`INSERT INTO cu (id, r, n) VALUES (3, ?, ?)`,
			value.Str(hostdb.URL("fs1", "/cu/tmp")), value.Str(hostdb.URL("fs1", "/cu/missing"))); !errors.Is(err, hostdb.ErrStatement) {
			t.Fatalf("statement linking a missing file = %v, want %v", err, hostdb.ErrStatement)
		}
		if st.DLFMs["fs1"].Stats().Backouts == backouts {
			t.Fatal("the failed statement backed nothing out")
		}
	}
	if sh.unlink {
		if _, err := s.Exec(`DELETE FROM cu WHERE id = 1`); err != nil {
			t.Fatal(err)
		}
		if _, err := s.Exec(`INSERT INTO cu (id, r, n) VALUES (2, ?, NULL)`, value.Str(hostdb.URL("fs1", "/cu/new"))); err != nil {
			t.Fatal(err)
		}
	}
	for _, server := range sh.enlist {
		if err := s.Enlist(server); err != nil {
			t.Fatal(err)
		}
	}
	txn := s.TxnID()
	before := commitCounters(st)
	for _, f := range sh.faults {
		var opts []fault.Option
		if f.match != "" {
			opts = append(opts, fault.Match(f.match))
			if !f.repeat {
				opts = append(opts, fault.Times(1))
			}
		}
		fault.Default().Arm(f.point, f.act, opts...)
	}
	switch {
	case sh.load > 0:
		batches := st.DLFMs["fs1"].Stats().BatchCommits
		_, err = st.Host.Load("cm", []string{"id", "c1"}, loadRows)
		if st.DLFMs["fs1"].Stats().BatchCommits == batches {
			t.Fatal("the load made no intermediate commit")
		}
	case sh.xa:
		if err = s.PrepareGlobal(); err == nil {
			if sh.dlfmRestart {
				st.Kill("fs1")
				st.Restart("fs1")
			}
			err = s.CommitGlobal()
		}
	default:
		err = s.Commit()
	}
	for _, f := range sh.faults {
		fault.Default().Disarm(f.point)
	}
	s.Close()
	if sh.restart {
		if err := st.Host.Crash(); err != nil {
			t.Fatal(err)
		}
	}

	if sh.wantErr == nil && err != nil || sh.wantErr != nil && !errors.Is(err, sh.wantErr) {
		t.Fatalf("commit = %v, want %v", err, sh.wantErr)
	}
	after := commitCounters(st)
	got := commitDelta{
		after.Commits - before.Commits, after.Aborts - before.Aborts, after.OnePhase - before.OnePhase,
		after.ReadOnly - before.ReadOnly, after.Paxos - before.Paxos,
	}
	if got != sh.want {
		t.Errorf("counter deltas = %+v, want %+v", got, sh.want)
	}
	rows, err := st.Host.Engine().DumpTable("dl_outcome")
	if err != nil {
		t.Fatal(err)
	}
	recorded := false
	for _, r := range rows {
		recorded = recorded || r[0].Int64() == txn
	}
	if recorded != sh.wantOutcome {
		t.Errorf("dl_outcome row = %v, want %v", recorded, sh.wantOutcome)
	}
	if n := st.Host.ParkedIndoubts(); n != sh.wantParked {
		t.Errorf("parked hints = %d, want %d", n, sh.wantParked)
	}

	// Resolution settles every DLFM and the host's own branches, forgets
	// every kept outcome, and the invariant holds once the agents of the
	// closed session have released their work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Host.ResolveIndoubts(); err != nil {
			t.Fatal(err)
		}
		tables := []string{"cm"}
		if sh.unlink {
			tables = append(tables, "cu")
		}
		vs, err := CheckConsistency(st, tables...)
		if err != nil {
			t.Fatal(err)
		}
		settled := st.PreparedTxns() == 0 && len(st.Host.Engine().IndoubtTxns()) == 0 && keptOutcomes(t, st) == 0
		if settled && len(vs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after resolution: %d prepared, host indoubt %v, %d kept outcomes, violations %v",
				st.PreparedTxns(), st.Host.Engine().IndoubtTxns(), keptOutcomes(t, st), vs)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if sh.unlink {
		checkUnlinkShape(t, st)
	}
}

// setupUnlinkShape creates table cu on fs1 — a recovery column r and a
// full-control column n without recovery — and commits a row linking
// /cu/old in n.
func setupUnlinkShape(t *testing.T, st *Stack) {
	t.Helper()
	if err := st.Host.CreateTable("CREATE TABLE cu (id BIGINT, r VARCHAR, n VARCHAR)",
		hostdb.DatalinkCol{Name: "r", Recovery: true}, hostdb.DatalinkCol{Name: "n", FullControl: true}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"/cu/old", "/cu/new", "/cu/tmp"} {
		if err := st.FS["fs1"].Create(name, "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}
	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO cu (id, r, n) VALUES (1, NULL, ?)`, value.Str(hostdb.URL("fs1", "/cu/old"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
}

// checkUnlinkShape checks what the unlink shape's commit leaves at fs1:
// /cu/old's entry purged and the file released to its owner, /cu/new's
// archive copy readied and the file read-only, /cu/tmp untouched.
func checkUnlinkShape(t *testing.T, st *Stack) {
	t.Helper()
	files, err := st.DLFMs["fs1"].DB().DumpTable("dlfm_file")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range files {
		if name := r[0].Text(); name == "/cu/old" || name == "/cu/tmp" {
			t.Errorf("dlfm_file keeps an entry for %s: %v", name, r)
		}
	}
	archive, err := st.DLFMs["fs1"].DB().DumpTable("dlfm_archive")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range archive {
		if r[0].Text() == "/cu/new" && r[4].Text() == "W" {
			t.Errorf("the archive copy of /cu/new was never readied: %v", r)
		}
	}
	for _, want := range []struct {
		name     string
		readOnly bool
	}{{"/cu/old", false}, {"/cu/new", true}, {"/cu/tmp", false}} {
		fi, err := st.FS["fs1"].Stat(want.name)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Owner != "app" || fi.ReadOnly != want.readOnly {
			t.Errorf("%s: owner %q, read-only %v; want owner app, read-only %v", want.name, fi.Owner, fi.ReadOnly, want.readOnly)
		}
	}
}

// keptOutcomes counts the transaction entries DLFMs keep for the host to
// forget: one-phase commits ('O') and recorded aborts ('A').
func keptOutcomes(t *testing.T, st *Stack) int {
	t.Helper()
	n := 0
	for _, d := range st.DLFMs {
		rows, err := d.DB().DumpTable("dlfm_txn")
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if s := r[1].Text(); s == "O" || s == "A" {
				n++
			}
		}
	}
	return n
}

// TestKeptOutcomesForgotten follows the outcomes a DLFM keeps for one-phase
// commits without the indoubt sweep: the connection's next one-phase commit
// forgets the previous one even with nothing of its own to commit, and the
// outcome of a commit that dropped a file group passes to the Delete Group
// daemon, which deletes it once the group is gone.
func TestKeptOutcomesForgotten(t *testing.T) {
	st := testStack(t)
	if err := st.Host.CreateTable("CREATE TABLE ko (id BIGINT, doc VARCHAR)", hostdb.DatalinkCol{Name: "doc"}); err != nil {
		t.Fatal(err)
	}
	if err := st.FS["fs1"].Create("/ko/f", "app", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO ko (id, doc) VALUES (1, ?)`, value.Str(hostdb.URL("fs1", "/ko/f"))); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := keptOutcomes(t, st); n != 1 {
		t.Fatalf("kept outcomes after a one-phase commit = %d, want 1", n)
	}
	// A transaction that only enlists fs1 commits there in one phase with
	// no work of its own: its local commit only forgets.
	if err := s.Enlist("fs1"); err != nil {
		t.Fatal(err)
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}
	if n := keptOutcomes(t, st); n != 0 {
		t.Fatalf("kept outcomes after the next commit = %d, want 0", n)
	}

	// DROP TABLE deletes the column's group at fs1 in one phase; the Forget
	// its session sends on closing hands the outcome to the daemon.
	if err := st.Host.DropTable("ko"); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		rows, err := st.DLFMs["fs1"].DB().DumpTable("dlfm_txn")
		if err != nil {
			t.Fatal(err)
		}
		status, err := st.DLFMs["fs1"].Upcaller().IsLinked("/ko/f")
		if err != nil {
			t.Fatal(err)
		}
		deleted := st.DLFMs["fs1"].Stats().GroupsDeleted
		if len(rows) == 0 && !status.Linked && deleted == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after DROP TABLE: transaction entries %v, file linked %v, groups deleted %d", rows, status.Linked, deleted)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestXAPhase2LossParksAndResolves drops every Commit request of an XA
// branch's phase 2: the branch is committed at the host, the DLFM stays
// prepared, and the lost participant is parked like any other phase-2
// failure until ResolveIndoubts re-drives the commit.
func TestXAPhase2LossParksAndResolves(t *testing.T) {
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })
	st := testStack(t)
	if err := st.Host.CreateTable("CREATE TABLE xa (id BIGINT, doc VARCHAR)", hostdb.DatalinkCol{Name: "doc"}); err != nil {
		t.Fatal(err)
	}
	if err := st.FS["fs1"].Create("/xa/f", "app", []byte("x")); err != nil {
		t.Fatal(err)
	}
	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO xa (id, doc) VALUES (1, ?)`, value.Str(hostdb.URL("fs1", "/xa/f"))); err != nil {
		t.Fatal(err)
	}
	if err := s.PrepareGlobal(); err != nil {
		t.Fatal(err)
	}
	fault.Default().Arm("rpc.send.before", fault.Action{Drop: true}, fault.Match("Commit"))
	err := s.CommitGlobal()
	fault.Default().Disarm("rpc.send.before")
	if err != nil {
		t.Fatalf("CommitGlobal = %v; the branch committed, only phase 2 was lost", err)
	}
	if n := st.Host.ParkedIndoubts(); n != 1 {
		t.Fatalf("parked hints = %d, want 1", n)
	}
	if n := st.PreparedTxns(); n != 1 {
		t.Fatalf("prepared at the DLFM = %d, want 1", n)
	}
	if _, err := st.Host.ResolveIndoubts(); err != nil {
		t.Fatal(err)
	}
	if n := st.PreparedTxns(); n != 0 {
		t.Fatalf("prepared after resolution = %d, want 0", n)
	}
	if status, _ := st.DLFMs["fs1"].Upcaller().IsLinked("/xa/f"); !status.Linked {
		t.Fatal("the committed branch's link is not linked after resolution")
	}
	if vs, err := CheckConsistency(st, "xa"); err != nil || len(vs) > 0 {
		t.Fatalf("consistency: %v %v", err, vs)
	}
}
