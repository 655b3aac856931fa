package paxoscommit

import (
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fault"
	"repro/internal/rpc"
)

// directCaller drives an acceptor in-process, no transport.
type directCaller struct{ ag rpc.Agent }

func (d directCaller) Call(req any) (rpc.Response, error) { return d.ag.Handle(req), nil }

// downCaller models an unreachable acceptor.
type downCaller struct{}

func (downCaller) Call(req any) (rpc.Response, error) {
	return rpc.Response{}, errors.New("acceptor down")
}

func newSet(t *testing.T, n int) ([]*Acceptor, []Caller) {
	t.Helper()
	accs := make([]*Acceptor, n)
	callers := make([]Caller, n)
	for i := range accs {
		a, err := NewAcceptor(fmt.Sprintf("acc%d", i), "")
		if err != nil {
			t.Fatalf("NewAcceptor: %v", err)
		}
		t.Cleanup(func() { a.Close() })
		accs[i] = a
		callers[i] = directCaller{a.NewAgent()}
	}
	return accs, callers
}

func learner(c []Caller, id int64) *Learner {
	return &Learner{Acceptors: c, ID: id, Stride: 16}
}

func TestLeaderCommitThenLearnerSeesCommit(t *testing.T) {
	_, callers := newSet(t, 3)
	if err := Commit(callers, 7, []string{"fs1", "fs2"}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	out, err := learner(callers, 1).Outcome(7)
	if err != nil || out != OutcomeCommit {
		t.Fatalf("Outcome = %q, %v; want commit", out, err)
	}
	// A second learner (different ballot space) agrees.
	out, err = learner(callers, 2).Outcome(7)
	if err != nil || out != OutcomeCommit {
		t.Fatalf("second Outcome = %q, %v; want commit", out, err)
	}
}

func TestLearnerAbortsUndecidedAndBlocksLateLeader(t *testing.T) {
	_, callers := newSet(t, 3)
	out, err := learner(callers, 1).Outcome(42)
	if err != nil || out != OutcomeAbort {
		t.Fatalf("Outcome = %q, %v; want abort", out, err)
	}
	// The learner's higher ballots now bind the acceptors: a leader that
	// wakes up late and tries its ballot-0 round must be preempted, never
	// silently committing a transaction already learned as aborted.
	if err := Commit(callers, 42, []string{"fs1"}); !errors.Is(err, ErrPreempted) {
		t.Fatalf("late Commit = %v; want ErrPreempted", err)
	}
	out, err = learner(callers, 2).Outcome(42)
	if err != nil || out != OutcomeAbort {
		t.Fatalf("relearned Outcome = %q, %v; want abort", out, err)
	}
}

func TestLearnerCompletesChosenRound(t *testing.T) {
	// The leader died after its accepts reached a majority (acceptors 0 and
	// 1) — the transaction IS committed, and a learner promising through
	// acceptors that saw the values must say so.
	_, callers := newSet(t, 3)
	txn := int64(9)
	for _, c := range callers[:2] {
		resp, err := c.Call(rpc.PaxosAcceptReq{Txn: txn, Bal: 0,
			Parts: []string{RegistrarPart, "fs1"}, Vals: []string{EncodeParts([]string{"fs1"}), ValPrepared}})
		if err != nil || !resp.OK() {
			t.Fatalf("seed accept: %v %+v", err, resp)
		}
	}
	out, err := learner(callers, 1).Outcome(txn)
	if err != nil || out != OutcomeCommit {
		t.Fatalf("Outcome = %q, %v; want commit", out, err)
	}
}

func TestConcurrentLearnersConverge(t *testing.T) {
	// A leader round that reached only one acceptor: not chosen, so either
	// outcome is legal — but every learner must land on the same one.
	_, callers := newSet(t, 3)
	txn := int64(11)
	if resp, err := callers[0].Call(rpc.PaxosAcceptReq{Txn: txn, Bal: 0,
		Parts: []string{RegistrarPart, "fs1"}, Vals: []string{EncodeParts([]string{"fs1"}), ValPrepared}}); err != nil || !resp.OK() {
		t.Fatalf("seed accept: %v %+v", err, resp)
	}
	const n = 4
	outs := make([]string, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out, err := learner(callers, int64(i+1)).Outcome(txn)
			if err != nil {
				t.Errorf("learner %d: %v", i, err)
				return
			}
			outs[i] = out
		}(i)
	}
	wg.Wait()
	for i := 1; i < n; i++ {
		if outs[i] != outs[0] {
			t.Fatalf("learners disagree: %v", outs)
		}
	}
}

func TestAcceptorStateSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	paths := make([]string, 3)
	callers := make([]Caller, 3)
	for i := range paths {
		paths[i] = filepath.Join(dir, fmt.Sprintf("acc%d.wal", i))
		a, err := NewAcceptor(fmt.Sprintf("acc%d", i), paths[i])
		if err != nil {
			t.Fatalf("NewAcceptor: %v", err)
		}
		callers[i] = directCaller{a.NewAgent()}
		defer a.Close()
	}
	if err := Commit(callers, 5, []string{"fs1", "fs2"}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// Restart every acceptor from its log; the decision must still be
	// learnable.
	reborn := make([]Caller, 3)
	for i, p := range paths {
		a, err := NewAcceptor(fmt.Sprintf("acc%d", i), p)
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer a.Close()
		reborn[i] = directCaller{a.NewAgent()}
	}
	out, err := learner(reborn, 1).Outcome(5)
	if err != nil || out != OutcomeCommit {
		t.Fatalf("Outcome after restart = %q, %v; want commit", out, err)
	}
}

func TestNoQuorum(t *testing.T) {
	_, callers := newSet(t, 3)
	callers[1], callers[2] = downCaller{}, downCaller{}
	if err := Commit(callers, 3, []string{"fs1"}); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Commit = %v; want ErrNoQuorum", err)
	}
	l := learner(callers, 1)
	l.MaxAttempts = 2
	if _, err := l.Outcome(3); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Outcome = %v; want ErrNoQuorum", err)
	}
}

func TestForgetDropsInstances(t *testing.T) {
	accs, callers := newSet(t, 3)
	if err := Commit(callers, 8, []string{"fs1"}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	Forget(callers, 8)
	for i, a := range accs {
		if n := a.Instances(); n != 0 {
			t.Fatalf("acceptor %d still holds %d instances", i, n)
		}
	}
}

// countingCaller counts the accept messages sent to one acceptor.
type countingCaller struct {
	Caller
	accepts *atomic.Int64
}

func (c countingCaller) Call(req any) (rpc.Response, error) {
	if _, ok := req.(rpc.PaxosAcceptReq); ok {
		c.accepts.Add(1)
	}
	return c.Caller.Call(req)
}

// The leader's fast path is one bundled accept per acceptor: a
// two-participant commit (three instances) over three acceptors sends
// three accept messages, not nine.
func TestCommitSendsOneAcceptPerAcceptor(t *testing.T) {
	accs, callers := newSet(t, 3)
	var accepts atomic.Int64
	for i := range callers {
		callers[i] = countingCaller{callers[i], &accepts}
	}
	if err := Commit(callers, 7, []string{"fs1", "fs2"}); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	if n := accepts.Load(); n != 3 {
		t.Errorf("Commit sent %d accept messages, want 3", n)
	}
	// Acceptor.Stats still counts instances: three at each acceptor.
	for i, a := range accs {
		if _, acc, _ := a.Stats(); acc != 3 {
			t.Errorf("acceptor %d accepted %d instances, want 3", i, acc)
		}
	}
}

// A learner that promised a higher ballot on one participant's instance
// preempts the leader, even though the rest of its bundle is accepted.
func TestPromiseOnOneInstancePreemptsCommit(t *testing.T) {
	_, callers := newSet(t, 3)
	for _, c := range callers {
		if resp, err := c.Call(rpc.PaxosPromiseReq{Txn: 4, Part: "fs2", Bal: 17}); err != nil || !resp.OK() {
			t.Fatalf("promise: %v %+v", err, resp)
		}
	}
	if err := Commit(callers, 4, []string{"fs1", "fs2"}); !errors.Is(err, ErrPreempted) {
		t.Fatalf("Commit = %v; want ErrPreempted", err)
	}
	out, err := learner(callers, 3).Outcome(4)
	if err != nil || out != OutcomeAbort {
		t.Fatalf("Outcome = %q, %v; want abort", out, err)
	}
}

// The acceptor answers a bundle per instance: accepted instances report
// the bundle's ballot, a stale one its promised ballot.
func TestAcceptBundleAnswersPerInstance(t *testing.T) {
	_, callers := newSet(t, 1)
	c := callers[0]
	if resp, err := c.Call(rpc.PaxosPromiseReq{Txn: 5, Part: "fs1", Bal: 9}); err != nil || !resp.OK() {
		t.Fatalf("promise: %v %+v", err, resp)
	}
	resp, err := c.Call(rpc.PaxosAcceptReq{Txn: 5, Bal: 0,
		Parts: []string{RegistrarPart, "fs1", "fs2"}, Vals: []string{"fs1,fs2", ValPrepared, ValPrepared}})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Code != "stale" || resp.N != 9 || !reflect.DeepEqual(resp.RecIDs, []int64{0, 9, 0}) {
		t.Fatalf("reply = %+v; want stale, N 9, RecIDs [0 9 0]", resp)
	}
	read, _ := c.Call(rpc.PaxosReadReq{Txn: 5})
	if sort.Strings(read.Names); !reflect.DeepEqual(read.Names, []string{RegistrarPart, "fs2"}) {
		t.Fatalf("accepted instances = %v; want @parts and fs2", read.Names)
	}
	if resp, _ := c.Call(rpc.PaxosAcceptReq{Txn: 5, Parts: []string{"fs1"}}); resp.Code != "severe" {
		t.Fatalf("mismatched bundle = %+v; want severe", resp)
	}
}

// accept_drop fires once per (acceptor, instance) with the part as detail.
// A drop matched to one participant at one acceptor cuts that acceptor's
// bundle before it, and the other two acceptors still make the quorum.
func TestAcceptDropCutsOneBundle(t *testing.T) {
	fault.Default().Reset()
	t.Cleanup(fault.Default().Reset)
	accs, callers := newSet(t, 3)

	fault.Default().Arm("paxos.accept_drop", fault.Action{Drop: true}, fault.Match("fs1"), fault.Times(1))
	if err := Commit(callers, 6, []string{"fs1", "fs2"}); err != nil {
		t.Fatalf("Commit with one dropped instance = %v; want quorum", err)
	}
	var total int64
	for _, a := range accs {
		_, acc, _ := a.Stats()
		total += acc
	}
	// 3 instances at 2 acceptors, and only @parts (before fs1) at the third.
	if total != 7 {
		t.Errorf("acceptors accepted %d instances, want 7", total)
	}

	// Unmatched, the point fires once per instance at every acceptor.
	fault.Default().Arm("paxos.accept_drop", fault.Action{Delay: time.Microsecond})
	before := fault.Default().Fired("paxos.accept_drop")
	if err := Commit(callers, 8, []string{"fs1", "fs2"}); err != nil {
		t.Fatal(err)
	}
	if n := fault.Default().Fired("paxos.accept_drop") - before; n != 9 {
		t.Errorf("accept_drop fired %d times, want 9 (3 acceptors x 3 instances)", n)
	}

	// Dropping the registrar everywhere leaves nothing to send.
	fault.Default().Arm("paxos.accept_drop", fault.Action{Drop: true}, fault.Match(RegistrarPart))
	if err := Commit(callers, 9, []string{"fs1"}); !errors.Is(err, ErrNoQuorum) {
		t.Fatalf("Commit with every bundle dropped = %v; want ErrNoQuorum", err)
	}
}
