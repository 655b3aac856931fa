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

// commitShape is one row of the commit-shape matrix: a deployment, the
// transaction driven through it, and what the commit must leave behind.
type commitShape struct {
	name       string
	servers    []string
	onePhase   bool
	paxos      bool
	readOnly   bool   // DLFMs cast read-only votes
	link       []int  // DATALINK columns linked: 1 → fs1, 2 → fs2
	enlist     string // a server enlisted without writing
	fault      string // fault point armed around the commit
	faultAct   fault.Action
	faultMatch string
	xa         bool // PrepareGlobal + CommitGlobal instead of Commit

	wantErr     error // nil, or the error class Commit returns
	want        commitDelta
	wantOutcome bool // a dl_outcome row records the decision
	wantParked  int
}

// TestCommitShapeMatrix drives one transaction per commit shape the host
// supports — 2PC, read-only votes, one-phase, Paxos Commit and an XA
// branch, each clean and in its failure branches — and pins the error
// class, the counter deltas, whether a dl_outcome row records the
// decision, and that indoubt resolution leaves every DLFM settled and the
// cross-system invariant intact.
func TestCommitShapeMatrix(t *testing.T) {
	fs12 := []string{"fs1", "fs2"}
	shapes := []commitShape{
		{name: "2pc one writer", servers: []string{"fs1"}, link: []int{1},
			want: commitDelta{Commits: 1}, wantOutcome: true},
		{name: "2pc two writers", servers: fs12, link: []int{1, 2},
			want: commitDelta{Commits: 1}, wantOutcome: true},
		{name: "writer + read-only voter", servers: fs12, readOnly: true, link: []int{1}, enlist: "fs2",
			want: commitDelta{Commits: 1, ReadOnly: 1}, wantOutcome: true},
		{name: "all read-only", servers: []string{"fs1"}, readOnly: true, enlist: "fs1",
			want: commitDelta{Commits: 1, ReadOnly: 1}},
		{name: "1pc committed", servers: []string{"fs1"}, onePhase: true, link: []int{1},
			want: commitDelta{Commits: 1, OnePhase: 1}},
		{name: "1pc refused", servers: []string{"fs1"}, onePhase: true, link: []int{1},
			fault: "rpc.server.handle", faultMatch: "OnePhaseCommit",
			wantErr: hostdb.ErrTxnRolledBack, want: commitDelta{Aborts: 1}},
		{name: "1pc lost reply resolved by query", servers: []string{"fs1"}, onePhase: true, link: []int{1},
			// The delay lets the DLFM commit before the connection drops,
			// so only the reply is lost.
			fault: "rpc.recv.before", faultMatch: "OnePhaseCommit",
			faultAct: fault.Action{Drop: true, Delay: 200 * time.Millisecond},
			want:     commitDelta{Commits: 1, OnePhase: 1}},
		{name: "paxos two writers", servers: fs12, paxos: true, link: []int{1, 2},
			want: commitDelta{Commits: 1, Paxos: 1}, wantOutcome: true},
		{name: "paxos every acceptor down", servers: fs12, paxos: true, link: []int{1, 2},
			fault: "paxos.accept_drop", faultAct: fault.Action{Drop: true},
			wantErr: hostdb.ErrTxnRolledBack, want: commitDelta{Aborts: 1}, wantParked: 1},
		{name: "xa commit", servers: []string{"fs1"}, link: []int{1}, xa: true,
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
			h.OnePhase = sh.onePhase
			if sh.paxos {
				h.CommitProtocol = "paxos"
			}
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
			c.ReadOnlyVote = sh.readOnly
			// The Delete Group daemon's rescan garbage-collects the 'C'
			// entry a one-phase commit leaves; keep it for the outcome query.
			c.GCInterval = time.Hour
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
	if sh.enlist != "" {
		if err := s.Enlist(sh.enlist); err != nil {
			t.Fatal(err)
		}
	}
	txn := s.TxnID()
	before := commitCounters(st)
	if sh.fault != "" {
		var opts []fault.Option
		if sh.faultMatch != "" {
			opts = append(opts, fault.Match(sh.faultMatch), fault.Times(1))
		}
		fault.Default().Arm(sh.fault, sh.faultAct, opts...)
	}
	if sh.xa {
		if err = s.PrepareGlobal(); err == nil {
			err = s.CommitGlobal()
		}
	} else {
		err = s.Commit()
	}
	if sh.fault != "" {
		fault.Default().Disarm(sh.fault)
	}
	s.Close()

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

	// Resolution settles every DLFM, and the invariant holds once the
	// agents of the closed session have released their work.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := st.Host.ResolveIndoubts(); err != nil {
			t.Fatal(err)
		}
		vs, err := CheckConsistency(st, "cm")
		if err != nil {
			t.Fatal(err)
		}
		if st.PreparedTxns() == 0 && len(vs) == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after resolution: %d prepared, violations %v", st.PreparedTxns(), vs)
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
