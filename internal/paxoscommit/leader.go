// The proposer side of Paxos Commit: the leader's ballot-0 fast path (run
// by the committing host session) and the recovery Learner (run by a
// participant's learner daemon or a host that lost its leader mid-commit).
package paxoscommit

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/rpc"
)

// fpAcceptDrop models a lost accept message: arm with Drop (or Err) to
// make the leader/learner treat that acceptor as unreachable for the send.
// It fires once per instance in a bundle, with the instance part name as
// detail, so Match can target the registrar instance ("@parts") or one
// participant; a drop ends that acceptor's bundle before the dropped
// instance.
var fpAcceptDrop = fault.P("paxos.accept_drop")

// Commit runs the leader's ballot-0 accept round for txn: the registrar
// instance carrying the participant list plus one "prepared" instance per
// participant, bundled into one PaxosAcceptReq per acceptor and sent to
// every acceptor at once — a single message delay, and one round trip per
// acceptor. nil means every instance was chosen by an acceptor majority —
// the transaction is durably committed and survives both the leader and
// any F acceptors dying. ErrPreempted means a recovery learner got there
// first (the caller must learn the outcome instead of assuming commit);
// ErrNoQuorum means too few acceptors answered to decide anything.
func Commit(acceptors []Caller, txn int64, parts []string) error {
	req := rpc.PaxosAcceptReq{Txn: txn,
		Parts: append([]string{RegistrarPart}, parts...),
		Vals:  make([]string, len(parts)+1),
	}
	req.Vals[0] = EncodeParts(parts)
	for i := range parts {
		req.Vals[i+1] = ValPrepared
	}

	acks := make([]int, len(req.Parts))
	var preempted error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for _, acc := range acceptors {
		wg.Add(1)
		go func(acc Caller) {
			defer wg.Done()
			resp, err := sendAccept(acc, req)
			if err != nil {
				return // acceptor unreachable
			}
			mu.Lock()
			defer mu.Unlock()
			for i, bal := range resp.RecIDs[:min(len(resp.RecIDs), len(req.Parts))] {
				if bal == req.Bal {
					acks[i]++
				} else if preempted == nil {
					preempted = stale(txn, req.Parts[i], bal)
				}
			}
		}(acc)
	}
	wg.Wait()

	if preempted != nil {
		return preempted
	}
	need := Quorum(len(acceptors))
	for _, n := range acks {
		if n < need {
			return noQuorum(txn, n, need)
		}
	}
	return nil
}

// Forget tells every reachable acceptor to discard the transaction's
// instances; best-effort (a missed acceptor just keeps a little state).
func Forget(acceptors []Caller, txn int64) {
	var wg sync.WaitGroup
	for _, acc := range acceptors {
		wg.Add(1)
		go func(acc Caller) {
			defer wg.Done()
			acc.Call(rpc.PaxosForgetReq{Txn: txn}) //nolint:errcheck
		}(acc)
	}
	wg.Wait()
}

// sendAccept sends req to one acceptor, cut before the first instance whose
// accept_drop fires; a bundle cut to nothing is not sent. The reply covers
// the instances sent.
func sendAccept(acc Caller, req rpc.PaxosAcceptReq) (rpc.Response, error) {
	for i, part := range req.Parts {
		if err := fpAcceptDrop.FireDetail(part); err != nil {
			if i == 0 {
				return rpc.Response{}, err
			}
			req.Parts, req.Vals = req.Parts[:i], req.Vals[:i]
			break
		}
	}
	return acc.Call(req)
}

// Learner determines a transaction's outcome from acceptor state without
// the coordinator. Each concurrent learner needs a distinct ID in [1,
// Stride) so no two ever share a ballot; the host and every DLFM get one
// at wiring time.
type Learner struct {
	Acceptors   []Caller
	ID          int64         // unique per learner, 1 <= ID < Stride
	Stride      int64         // > the number of distinct learners
	Backoff     fault.Backoff // between attempts (zero: fault defaults)
	MaxAttempts int           // 0 = 8
}

// Outcome drives each undecided instance of txn through full Paxos at a
// ballot above every previous attempt, proposing abort for instances with
// no accepted value, and folds the chosen values into OutcomeCommit or
// OutcomeAbort. It is safe to race the live leader and other learners:
// whoever decides, everyone converges on the same outcome.
func (l *Learner) Outcome(txn int64) (string, error) {
	attempts := l.MaxAttempts
	if attempts <= 0 {
		attempts = 8
	}
	bo := l.Backoff
	if bo.Base == 0 {
		bo.Base = time.Millisecond
	}
	var lastErr error
	for attempt := 1; attempt <= attempts; attempt++ {
		// Ballots grow with the attempt and never collide across learners.
		bal := int64(attempt)*l.Stride + l.ID
		out, err := l.tryOutcome(txn, bal)
		if err == nil {
			return out, nil
		}
		if !errors.Is(err, ErrPreempted) && !errors.Is(err, ErrNoQuorum) {
			return "", err
		}
		lastErr = err
		time.Sleep(bo.Delay(attempt))
	}
	return "", fmt.Errorf("paxoscommit: learner %d gave up on txn %d: %w", l.ID, txn, lastErr)
}

func (l *Learner) tryOutcome(txn int64, bal int64) (string, error) {
	reg, err := l.decide(txn, RegistrarPart, bal, AbortSentinel)
	if err != nil {
		return "", err
	}
	parts := DecodeParts(reg)
	if parts == nil {
		// No participant list was ever chosen: the leader never reached its
		// accept round, so the transaction cannot have committed.
		return OutcomeAbort, nil
	}
	for _, part := range parts {
		v, err := l.decide(txn, part, bal, ValAborted)
		if err != nil {
			return "", err
		}
		if v != ValPrepared {
			return OutcomeAbort, nil
		}
	}
	return OutcomeCommit, nil
}

// decide runs one instance through promise + accept at ballot bal. If a
// quorum's promises reveal an accepted value, the highest-ballot one is
// re-proposed (Paxos's invariant: a possibly-chosen value must win);
// otherwise fallback is proposed. The returned value is chosen once the
// accept round reaches a quorum.
func (l *Learner) decide(txn int64, part string, bal int64, fallback string) (string, error) {
	type promise struct {
		ok     bool
		accBal int64
		accVal string
		has    bool
	}
	proms := make([]promise, len(l.Acceptors))
	var preempted error
	var mu sync.Mutex
	var wg sync.WaitGroup
	for i, acc := range l.Acceptors {
		wg.Add(1)
		go func(i int, acc Caller) {
			defer wg.Done()
			resp, err := acc.Call(rpc.PaxosPromiseReq{Txn: txn, Part: part, Bal: bal})
			if err != nil {
				return
			}
			mu.Lock()
			defer mu.Unlock()
			if !resp.OK() {
				if resp.Code == "stale" && preempted == nil {
					preempted = stale(txn, part, resp.N)
				}
				return
			}
			proms[i].ok = true
			if len(resp.Names) == 1 && len(resp.RecIDs) == 1 {
				proms[i].has = true
				proms[i].accVal = resp.Names[0]
				proms[i].accBal = resp.RecIDs[0]
			}
		}(i, acc)
	}
	wg.Wait()
	if preempted != nil {
		return "", preempted
	}

	need := Quorum(len(l.Acceptors))
	granted := 0
	val, maxBal := fallback, int64(-1)
	for _, p := range proms {
		if !p.ok {
			continue
		}
		granted++
		if p.has && p.accBal > maxBal {
			val, maxBal = p.accVal, p.accBal
		}
	}
	if granted < need {
		return "", noQuorum(txn, granted, need)
	}

	acks := 0
	preempted = nil
	for i, acc := range l.Acceptors {
		if !proms[i].ok {
			continue // no promise, its accept would be rejected anyway
		}
		resp, err := sendAccept(acc, rpc.PaxosAcceptReq{Txn: txn, Bal: bal, Parts: []string{part}, Vals: []string{val}})
		if err != nil {
			continue
		}
		if resp.OK() {
			acks++
		} else if resp.Code == "stale" && preempted == nil {
			preempted = stale(txn, part, resp.N)
		}
	}
	if acks >= need {
		return val, nil
	}
	if preempted != nil {
		return "", preempted
	}
	return "", noQuorum(txn, acks, need)
}
