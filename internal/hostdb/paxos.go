package hostdb

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/paxoscommit"
	"repro/internal/rpc"
	"repro/internal/value"
)

// Paxos Commit as the host's commit protocol (Gray & Lamport). The 2PC
// decision point — the coordinator's forced write of the outcome — is the
// protocol's blocking hazard: until the coordinator (or its recovered
// incarnation) speaks again, every prepared participant holds its locks.
// Under CommitProtocol "paxos" the decision is instead *chosen* by a
// majority of 2F+1 acceptors: the session's ballot-0 accept round writes
// the registrar instance (the participant list) and one "prepared"
// instance per participant, and the outcome from then on is a pure
// function of acceptor state. Any participant's learner daemon — or a
// host session recovering from its own interrupted commit — computes it
// without the coordinator, so no single failure wedges a transaction.

// fpLeaderCrash simulates the coordinator dying inside its commit. Detail
// "pre" fires before the accept round (nothing chosen yet — recovery must
// abort); "post" fires after the quorum chose commit but before any
// phase-2 message (participants must learn the commit from the acceptors).
// An arming without Match can hit either site.
var fpLeaderCrash = fault.P("hostdb.paxos.leader_crash")

// hostPart is the instance name of the host database's own branch in the
// transaction's Paxos bundle: the host is a participant too (its branch is
// hardened with PrepareTxn before the accept round), so the outcome
// function covers it like any DLFM.
const hostPart = "@host"

// hostLearnerID is the host's learner identity; DLFM learner daemons get
// IDs 2..len (wired by the stack), all sharing paxoscommit.DefaultStride.
const hostLearnerID = 1

// acceptorEntry is one registered acceptor endpoint, dialed lazily and
// shared by every session and daemon; a transport error drops the cached
// client so the next call re-dials.
type acceptorEntry struct {
	name string
	dial Dialer

	mu     sync.Mutex
	client *rpc.Client
}

// Call implements paxoscommit.Caller.
func (e *acceptorEntry) Call(req any) (rpc.Response, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.client == nil {
		c, err := e.dial()
		if err != nil {
			return rpc.Response{}, err
		}
		e.client = c
	}
	resp, err := e.client.Call(req)
	if err != nil {
		e.client.Close()
		e.client = nil
	}
	return resp, err
}

// RegisterAcceptor makes a Paxos Commit acceptor reachable. Register an
// odd number (2F+1) before the first paxos commit; the set must be the
// same for every host and DLFM learner of the deployment.
func (db *DB) RegisterAcceptor(name string, dial Dialer) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.acceptors = append(db.acceptors, &acceptorEntry{name: name, dial: dial})
}

// acceptorCallers snapshots the acceptor set in registration order.
func (db *DB) acceptorCallers() []paxoscommit.Caller {
	db.mu.Lock()
	defer db.mu.Unlock()
	out := make([]paxoscommit.Caller, len(db.acceptors))
	for i, e := range db.acceptors {
		out[i] = e
	}
	return out
}

// protocol resolves the effective commit protocol: "paxos" needs both the
// knob and a registered acceptor set.
func (db *DB) protocol() string {
	if db.cfg.CommitProtocol == "paxos" && len(db.acceptorCallers()) > 0 {
		return "paxos"
	}
	return "2pc"
}

// learner builds the host's recovery learner over the registered acceptors.
func (db *DB) learner() *paxoscommit.Learner {
	return &paxoscommit.Learner{
		Acceptors: db.acceptorCallers(),
		ID:        hostLearnerID,
		Stride:    paxoscommit.DefaultStride,
	}
}

// LearnOutcome determines txn's outcome ("commit"/"abort") from the
// acceptors alone — the entry point indoubt resolution and the DLFM-side
// learner closures use.
func (db *DB) LearnOutcome(txn int64) (string, error) {
	return db.learner().Outcome(txn)
}

// commitPaxos replaces 2PC's decision write with the acceptor quorum. The
// session arrives with every writer prepared; the host's own branch is
// hardened (PrepareTxn) with the outcome row riding inside it, then the
// ballot-0 accept round chooses the commit. Only after the quorum is the
// branch committed and phase 2 fanned out.
func (s *Session) commitPaxos(root, p1 *obs.SpanHandle, writers []*participant, txn int64, start time.Time) error {
	db := s.db
	acceptors := db.acceptorCallers()
	parts := make([]string, 0, len(writers)+1)
	for _, p := range writers {
		parts = append(parts, p.server)
	}
	parts = append(parts, hostPart)

	// The outcome row rides inside the host branch: it becomes durable
	// exactly when the branch commits, which happens only after the
	// acceptors chose commit — so dl_outcome can never contradict them.
	if _, err := s.conn.ExecStmt(insOutcome, value.Int(txn)); err != nil {
		return s.abortCommit(fmt.Errorf("%w: %v", ErrTxnRolledBack, err))
	}
	if err := s.conn.PrepareTxn(); err != nil {
		return s.abortCommit(fmt.Errorf("%w: host prepare: %v", ErrTxnRolledBack, err))
	}

	if err := fpLeaderCrash.FireDetail("pre"); err != nil {
		// Crashed before the accept round: nothing is chosen, recovery
		// learns abort. No phase-2 traffic — the DLFMs' learner daemons
		// find the abort themselves (the non-blocking property under test).
		return s.paxosRecover(root, writers, txn, err, false)
	}

	sp := db.tracer.StartSpan(root.Ctx(), "host", "paxos_accept")
	acceptErr := paxoscommit.Commit(acceptors, txn, parts)
	sp.End()
	p1.End() // Gray & Lamport's phase 1 ends at the stable write — here, the quorum

	switch {
	case acceptErr == nil:
	case errors.Is(acceptErr, paxoscommit.ErrPreempted):
		// A recovery learner beat the leader to the instances (a slow
		// commit raced a participant's learner daemon). The outcome is
		// whatever it chose; learn it and converge.
		return s.paxosRecover(root, writers, txn, acceptErr, true)
	default:
		return s.paxosNoQuorum(txn, acceptErr)
	}

	// Chosen. The host branch lands; failure here means the engine itself
	// broke — the branch stays prepared and the decision is still safe at
	// the acceptors.
	if err := s.conn.CommitPrepared(); err != nil {
		db.parkIndoubt(txn, "", "learn")
		s.abandonParts()
		s.finishTxn()
		return fmt.Errorf("hostdb: txn %d chosen commit but host branch failed to land: %v", txn, err)
	}

	if err := fpLeaderCrash.FireDetail("post"); err != nil {
		// Crashed after the decision but before phase 2 — 2PC's wedging
		// window. Here the commit is already learnable from the acceptors,
		// so the participants release their locks without us.
		db.stats.PaxosCommits.Add(1)
		s.abandonParts()
		s.finishTxn()
		return fmt.Errorf("%w: commit of txn %d interrupted before phase 2 (outcome chosen by acceptors): %v", ErrCommitUnacked, txn, err)
	}

	if s.phase2Fanout(root, writers, txn, true) {
		// Every participant applied the commit; the acceptors' state is no
		// longer needed. (Skipped when an ack is missing: that participant
		// is still prepared and its learner must find the instances.)
		paxoscommit.Forget(acceptors, txn)
	}
	db.stats.Commits.Add(1)
	db.stats.PaxosCommits.Add(1)
	db.commitHist.ObserveEx(time.Since(start), txn)
	s.finishTxn()
	return nil
}

// paxosRecover finishes an interrupted paxos commit the way a restarted
// coordinator would: learn the outcome from the acceptors and apply it to
// the prepared host branch. With sendPhase2 the decision is also fanned
// out; without it (simulated leader crash) the participants are left to
// their learner daemons.
func (s *Session) paxosRecover(root *obs.SpanHandle, writers []*participant, txn int64, cause error, sendPhase2 bool) error {
	db := s.db
	out, err := db.LearnOutcome(txn)
	if err != nil {
		return s.paxosNoQuorum(txn, err)
	}
	db.stats.PaxosRecoveries.Add(1)
	db.tracer.Emit(txn, "host", "paxos_recovered", out)

	if out == paxoscommit.OutcomeCommit {
		if err := s.conn.CommitPrepared(); err != nil {
			db.parkIndoubt(txn, "", "learn")
			s.abandonParts()
			s.finishTxn()
			return fmt.Errorf("hostdb: txn %d recovered as commit but host branch failed to land: %v", txn, err)
		}
		db.stats.PaxosCommits.Add(1)
		if !sendPhase2 {
			s.abandonParts()
			s.finishTxn()
			return fmt.Errorf("%w: commit of txn %d interrupted before phase 2 (outcome chosen by acceptors): %v", ErrCommitUnacked, txn, cause)
		}
		s.phase2Fanout(root, writers, txn, true)
		db.stats.Commits.Add(1)
		s.finishTxn()
		return nil
	}

	// Aborted (the usual case for a "pre" crash: nothing was chosen, so
	// recovery aborted by fiat).
	s.conn.RollbackPrepared() //nolint:errcheck
	if sendPhase2 {
		s.phase2Fanout(root, writers, txn, false)
	} else {
		s.abandonParts()
	}
	s.finishTxn()
	db.stats.Aborts.Add(1)
	return fmt.Errorf("%w: txn %d aborted by paxos recovery: %v", ErrTxnRolledBack, txn, cause)
}

// paxosNoQuorum handles an unreachable acceptor majority: the outcome is
// genuinely unknowable right now. The transaction is parked for the
// resolution daemon (which re-learns once acceptors return) and the host
// branch is heuristically rolled back so the session stays usable — the
// classic heuristic hazard, accepted because the alternative wedges the
// session on an indoubt branch.
func (s *Session) paxosNoQuorum(txn int64, cause error) error {
	s.db.parkIndoubt(txn, "", "learn")
	s.abandonParts()
	s.conn.RollbackPrepared() //nolint:errcheck
	s.finishTxn()
	s.db.stats.Aborts.Add(1)
	return fmt.Errorf("%w: txn %d outcome unknown (%v); host branch heuristically rolled back, parked for resolution", ErrTxnRolledBack, txn, cause)
}
