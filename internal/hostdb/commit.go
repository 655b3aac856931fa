package hostdb

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/paxoscommit"
	"repro/internal/rpc"
	"repro/internal/value"
)

// The host's one commit pipeline (Section 3.3). Commit, the XA branch calls
// and a coordinator recovering its own interrupted commit all run it:
//
//	prepare → decide → phase 2
//
// prepare asks every enlisted DLFM for its vote and drops read-only
// voters, decide makes the decision durable, phase 2 delivers it. Only
// decide varies, by where the decision's stable write lives — Gray &
// Lamport: 2PC is Paxos Commit with F = 0, its one acceptor the
// coordinator's log. Each decision point has one authority, DB.outcome,
// that indoubt resolution, parked hints and recovery ask afterwards.
type decisionPoint int

const (
	// atHostLog (2PC): a dl_outcome row, hardened by the host's local
	// commit. Authority: dl_outcome; no row means abort (presumed abort).
	atHostLog decisionPoint = iota
	// atAcceptors (Paxos Commit): chosen by a quorum of the 2F+1
	// registered acceptors. Authority: a learner over the acceptors.
	atAcceptors
	// atParticipant (one-phase): the sole DLFM's own commit, the default
	// whenever one DLFM takes part. Authority: a QueryOutcome to that DLFM,
	// which keeps the outcome until the host forgets it.
	atParticipant
	// atTM (XA): the external transaction manager, later; the host
	// hardens its branch with a dl_xa row. Authority: dl_xa → the branch's
	// fate in the engine log.
	atTM
)

// fpBetweenPhases interrupts Commit after the 2PC decision is durably
// recorded but before any phase-2 request is sent — the coordinator-crash
// window. Participants stay prepared (indoubt) until ResolveIndoubts
// re-drives the recorded decision.
var fpBetweenPhases = fault.P("hostdb.commit.between_phases")

// fpLeaderCrash simulates the Paxos coordinator dying inside its commit.
// Detail "pre" fires before the accept round (nothing chosen yet — recovery
// must abort); "post" fires after the quorum chose commit but before any
// phase-2 message (participants must learn the commit from the acceptors).
var fpLeaderCrash = fault.P("hostdb.paxos.leader_crash")

// fpOnePhaseCrash simulates the host dying inside a one-phase commit with
// its branch prepared: detail "pre" before the request leaves, "post" after
// the DLFM committed. The session then does what a dead process does —
// nothing: its DLFM connections drop and its branch is left prepared for
// ResolveIndoubts (after a restart, or in this process).
var fpOnePhaseCrash = fault.P("hostdb.onephase.crash")

// decisionPointFor resolves the commit protocol for a transaction with n
// enlisted DLFMs — the one place it is resolved. Indoubt resolution, which
// knows no participant count, passes 0.
func (db *DB) decisionPointFor(n int) decisionPoint {
	switch {
	case n == 1:
		return atParticipant
	case db.cfg.CommitProtocol == "paxos" && len(db.acceptorCallers()) > 0:
		return atAcceptors
	}
	return atHostLog
}

// commitRun is one transaction on its way through the pipeline.
type commitRun struct {
	txn      int64
	dp       decisionPoint
	start    time.Time
	root, p1 *obs.SpanHandle
	parts    []*participant // every begun participant
	writers  []*participant // the participants phase 2 must reach
	// crash is an injected coordinator failure after which no phase-2
	// message is sent; cause explains an outcome decide did not choose.
	crash, cause error
}

// hint is the resolution hint for a run whose end could not be settled
// inline, and what its host branch is named for a restart to resolve. It
// names a participant only where that participant is the authority.
func (r *commitRun) hint() parkedTxn {
	h := parkedTxn{txn: r.txn, dp: r.dp}
	if r.dp == atParticipant {
		h.server = r.parts[0].server
	}
	return h
}

// committable reports why the current transaction cannot start a commit.
func (s *Session) committable() error {
	switch {
	case s.txn == 0:
		return engine.ErrNoTxn
	case s.dead:
		return ErrTxnRolledBack
	case s.global != nil:
		return fmt.Errorf("hostdb: transaction %d is globally prepared; use CommitGlobal/AbortGlobal", s.txn)
	}
	return nil
}

// begunParts lists the participants enlisted in the current transaction,
// ordered by server. The order never decides lock order — each DLFM took
// its locks at statement time — but it fixes which failure is reported
// when several fail at once.
func (s *Session) begunParts() []*participant {
	var out []*participant
	for _, p := range s.parts {
		if p.begun {
			out = append(out, p)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].server < out[j].server })
	return out
}

// Commit commits the transaction across every enlisted DLFM: prepare,
// decide, phase 2 — synchronous unless the configuration opts into the
// asynchronous phase 2 the paper shows to be deadlock-prone.
func (s *Session) Commit() error {
	if err := s.committable(); err != nil {
		return err
	}
	r := &commitRun{txn: s.txn, start: time.Now(), parts: s.begunParts()}
	r.root = s.db.tracer.StartRoot(r.txn, "host", "commit")
	defer r.root.End()
	if len(r.parts) == 0 {
		if r.root != nil {
			s.conn.SetSpanCtx(r.root.Ctx())
		}
		err := s.commitLocal()
		s.finishTxn()
		return err
	}
	// Phase 1 runs from the first prepare through the durable decision —
	// Gray & Lamport's cost model ends it at the stable write.
	r.p1 = s.db.tracer.StartSpan(r.root.Ctx(), "host", "phase1")
	defer r.p1.End()
	if r.p1 != nil {
		s.conn.SetSpanCtx(r.p1.Ctx())
	}
	r.dp = s.db.decisionPointFor(len(r.parts))
	if r.dp == atParticipant {
		r.writers = r.parts // the sole participant decides; it never prepares
	} else if err := s.prepare(r); err != nil {
		return s.abortCommit(err)
	}
	if len(r.writers) == 0 {
		// Every participant voted read-only: no decision record, no phase
		// 2 — the commit is a local one.
		if err := s.commitLocal(); err != nil {
			return s.abortCommit(fmt.Errorf("%w: %v", ErrTxnRolledBack, err))
		}
		return s.committed(r)
	}
	outcome, err := s.decide(r)
	if err != nil {
		return s.abortCommit(fmt.Errorf("%w: %v", ErrTxnRolledBack, err))
	}
	return s.finish(r, outcome)
}

// prepare is phase 1: every participant votes, concurrently up to
// CommitFanout. One "no" vote or transport error aborts everyone and
// cancels prepares not yet issued. Read-only voters have released
// everything and are left out of phase 2.
func (s *Session) prepare(r *commitRun) error {
	outs := s.db.fanoutParts(r.parts, true, func(p *participant) (rpc.Response, error) {
		s.db.prepFanout.Add(1)
		defer s.db.prepFanout.Add(-1)
		sp := s.db.tracer.StartSpan(r.p1.Ctx(), "host", "rpc:Prepare").Attr("server", p.server)
		defer sp.End()
		return p.client.CallCtx(sp.Ctx(), rpc.PrepareReq{Txn: r.txn})
	})
	var err error
	for _, o := range outs {
		switch {
		case o.skipped:
		case o.err != nil:
			s.db.noteDLFMFailure(o.p.server, o.err)
			s.dropPart(o.p.server)
			if err == nil {
				err = fmt.Errorf("%w: prepare of txn %d at %s failed: %v", ErrTxnRolledBack, r.txn, o.p.server, o.err)
			}
		case !o.resp.OK():
			if err == nil {
				err = fmt.Errorf("%w: prepare of txn %d at %s failed: %s: %s", ErrTxnRolledBack, r.txn, o.p.server, o.resp.Code, o.resp.Msg)
			}
		case o.resp.ReadOnly:
			s.db.stats.ReadOnlyVotes.Add(1)
		default:
			r.writers = append(r.writers, o.p)
		}
	}
	return err
}

// decide makes the decision durable at r.dp and returns it: "commit",
// "abort", or "wait" — not known here (an XA branch awaiting its TM, or
// an outcome that could not be learned; r.cause says why). An error means
// nothing was decided and the caller aborts.
func (s *Session) decide(r *commitRun) (string, error) {
	switch r.dp {
	case atHostLog:
		// Only a committed transaction leaves a row, and the row commits
		// with the host transaction: the local commit is the decision.
		if _, err := s.conn.ExecStmt(insOutcome, value.Int(r.txn)); err != nil {
			return "", err
		}
		if err := s.commitLocal(); err != nil {
			return "", err
		}
		r.p1.End()
		r.crash = fpBetweenPhases.Fire()
		return "commit", nil

	case atAcceptors:
		// The outcome row rides inside the prepared host branch, which
		// lands only after the acceptors chose commit — so dl_outcome can
		// never contradict them.
		if _, err := s.conn.ExecStmt(insOutcome, value.Int(r.txn)); err != nil {
			return "", err
		}
		if err := s.conn.PrepareTxn(r.hint().branch()); err != nil {
			return "", fmt.Errorf("host prepare: %v", err)
		}
		if r.crash = fpLeaderCrash.FireDetail("pre"); r.crash != nil {
			return s.recoverOutcome(r, r.crash)
		}
		names := make([]string, 0, len(r.writers)+1)
		for _, p := range r.writers {
			names = append(names, p.server)
		}
		sp := s.db.tracer.StartSpan(r.root.Ctx(), "host", "paxos_accept")
		err := paxoscommit.Commit(s.db.acceptorCallers(), r.txn, append(names, hostPart))
		sp.End()
		r.p1.End()
		switch {
		case err == nil:
			r.crash = fpLeaderCrash.FireDetail("post")
			return "commit", nil
		case errors.Is(err, paxoscommit.ErrPreempted):
			// A recovery learner beat the leader to the instances; the
			// outcome is whatever it chose.
			return s.recoverOutcome(r, err)
		}
		r.cause = err
		return "wait", nil

	case atParticipant:
		// Harden the host branch first so it can follow the participant
		// either way — its name says where the decision is, for a restart;
		// a host side that only read has nothing to harden.
		if s.conn.InTxn() {
			if err := s.conn.PrepareTxn(r.hint().branch()); err != nil {
				return "", fmt.Errorf("host prepare: %v", err)
			}
		}
		p := r.writers[0]
		r.writers = nil // the participant applies its own decision
		if r.crash = fpOnePhaseCrash.FireDetail("pre"); r.crash != nil {
			return "wait", nil
		}
		sp := s.db.tracer.StartSpan(r.p1.Ctx(), "host", "rpc:OnePhaseCommit").Attr("server", p.server)
		resp, err := p.client.CallCtx(sp.Ctx(), rpc.OnePhaseCommitReq{Txn: r.txn})
		sp.End()
		if err == nil {
			s.db.noteDLFMSuccess(p.server)
			if resp.OK() {
				r.crash = fpOnePhaseCrash.FireDetail("post")
				return "commit", nil
			}
			r.cause = fmt.Errorf("refused at %s: %s: %s", p.server, resp.Code, resp.Msg)
			return "abort", nil
		}
		// Lost request or reply. The request is not idempotent, so the
		// participant's durable state answers instead of a re-send.
		s.db.noteDLFMFailure(p.server, err)
		s.dropPart(p.server)
		out, qerr := s.db.outcome(atParticipant, r.txn, p.server)
		if qerr != nil {
			r.cause = qerr
			return "wait", nil
		}
		r.cause = fmt.Errorf("reply from %s lost, its outcome queried: %v", p.server, err)
		return out, nil
	}
	// atTM: the durable host-txn → engine-txn mapping rides inside the
	// branch it names (inserting it also makes sure an engine transaction
	// exists to prepare); the external TM decides later.
	if _, err := s.conn.ExecStmt(insXA, value.Int(r.txn), value.Int(s.conn.TxnID())); err != nil {
		return "", err
	}
	if err := s.conn.PrepareTxn(r.hint().branch()); err != nil {
		return "", fmt.Errorf("host prepare: %v", err)
	}
	return "wait", nil
}

// recoverOutcome is a coordinator recovering its own interrupted Paxos
// commit: it learns the outcome from the acceptors as any participant's
// learner would.
func (s *Session) recoverOutcome(r *commitRun, cause error) (string, error) {
	out, err := s.db.outcome(atAcceptors, r.txn, "")
	if err != nil {
		r.cause = err
		return "wait", nil
	}
	s.db.stats.PaxosRecoveries.Add(1)
	s.db.tracer.Emit(r.txn, "host", "paxos_recovered", out)
	r.cause = fmt.Errorf("learned from the acceptors after %v", cause)
	return out, nil
}

// finish carries a run from its outcome to the end of the transaction.
func (s *Session) finish(r *commitRun, outcome string) error {
	if r.dp == atParticipant && (outcome == "wait" || r.crash != nil) {
		// The decision is the DLFM's and cannot be read now (or the
		// coordinator died): rolling the host branch back could contradict
		// a commit there, so the engine keeps the branch indoubt, as a
		// restart would find it, for ResolveIndoubts.
		if s.conn.InTxn() {
			s.conn.DetachPrepared() //nolint:errcheck // InTxn here means prepared
		}
		s.abandonParts()
		s.finishTxn()
		if r.crash != nil {
			r.cause = r.crash
		}
		return fmt.Errorf("%w: txn %d: %w; its branch is left to indoubt resolution", ErrOutcomeUnknown, r.txn, r.cause)
	}
	if outcome != "commit" {
		// "wait" (an outcome the acceptors could not give) is unknowable
		// right now: the transaction is parked for resolution and the host
		// branch heuristically rolled back — the classic heuristic hazard.
		if outcome == "wait" {
			s.db.parkIndoubt(r.hint())
		}
		if outcome == "abort" && r.crash == nil {
			s.phase2Fanout(r, "abort")
		} else {
			s.abandonParts()
		}
		s.rollbackBranch()
		s.finishTxn()
		s.db.stats.Aborts.Add(1)
		if outcome == "wait" {
			return fmt.Errorf("%w: txn %d outcome unknown (%v); host branch heuristically rolled back, parked for resolution", ErrTxnRolledBack, r.txn, r.cause)
		}
		return fmt.Errorf("%w: txn %d aborted: %v", ErrTxnRolledBack, r.txn, r.cause)
	}
	// Commit. 2PC's decision already landed the host branch; elsewhere it
	// is still prepared. If landing fails the engine itself broke: the
	// branch stays prepared and the decision stays where it is stored.
	if s.conn.InTxn() {
		if err := s.conn.CommitPrepared(); err != nil {
			s.db.parkIndoubt(r.hint())
			s.abandonParts()
			s.finishTxn()
			return fmt.Errorf("hostdb: txn %d decided commit but the host branch failed to land: %v", r.txn, err)
		}
	}
	switch r.dp {
	case atAcceptors:
		s.db.stats.PaxosCommits.Add(1)
	case atParticipant:
		s.db.stats.OnePhaseCommits.Add(1)
	}
	if r.crash != nil {
		// Interrupted after the decision but before phase 2 — 2PC's
		// blocking window. Participants settle through indoubt resolution
		// (2PC) or learn the commit from the acceptors (Paxos).
		s.abandonParts()
		s.finishTxn()
		return fmt.Errorf("%w: commit of txn %d interrupted before phase 2 (decision durable): %v", ErrCommitUnacked, r.txn, r.crash)
	}
	return s.committed(r)
}

// committed is the success tail: phase 2, then the count.
func (s *Session) committed(r *commitRun) error {
	if s.phase2Fanout(r, "commit") && r.dp == atAcceptors {
		// Every participant applied the commit, so the acceptors' state is
		// no longer needed; a participant that missed it still needs the
		// instances for its learner.
		paxoscommit.Forget(s.db.acceptorCallers(), r.txn)
	}
	s.db.stats.Commits.Add(1)
	s.db.commitHist.ObserveEx(time.Since(r.start), r.txn)
	s.finishTxn()
	return nil
}

// abortCommit is the abort tail of a run that reached no decision: every
// begun participant is told to abort and the host branch rolls back.
func (s *Session) abortCommit(err error) error {
	s.abortParts()
	s.rollbackBranch()
	s.finishTxn()
	s.db.stats.Aborts.Add(1)
	return err
}

// rollbackBranch rolls the host transaction back, prepared or not (each
// engine call refuses the other case).
func (s *Session) rollbackBranch() {
	if s.conn.RollbackPrepared() != nil && s.conn.InTxn() {
		s.conn.Rollback()
	}
}

// phase2Fanout delivers decision to r.writers and reports whether there
// were any and every one acknowledged synchronously (never, in the
// asynchronous variant, whose answers land off-session). A participant
// that did not apply the decision is parked for a directed retry.
func (s *Session) phase2Fanout(r *commitRun, decision string) bool {
	if len(r.writers) == 0 {
		return false
	}
	rpcName := "rpc:Commit"
	if decision == "abort" {
		rpcName = "rpc:Abort"
	}
	// In the asynchronous variant the span covers only the send window.
	p2span := s.db.tracer.StartSpan(r.root.Ctx(), "host", "phase2")
	defer p2span.End()
	if !s.db.cfg.SyncCommit {
		// The request is on the wire before Commit returns and the child
		// agent stays busy until it answers — so the agent's next caller
		// "blocks on message send" (Section 4). The answer still feeds
		// failover accounting; the session is gone by then, so there is
		// no dropPart (the next dial replaces the participant anyway).
		for _, p := range r.writers {
			sp := s.db.tracer.StartSpan(p2span.Ctx(), "host", rpcName).Attr("server", p.server)
			res := p.client.GoCtx(sp.Ctx(), phase2Req(r.txn, decision))
			go func(server string) {
				a := <-res
				sp.End()
				s.db.notePhase2(server, a.Resp, a.Err)
			}(p.server)
		}
		return false
	}
	// The decision is durable and every participant must hear it: the
	// fan-out never stops early.
	outs := s.db.fanoutParts(r.writers, false, func(p *participant) (rpc.Response, error) {
		sp := s.db.tracer.StartSpan(p2span.Ctx(), "host", rpcName).Attr("server", p.server)
		defer sp.End()
		return p.client.CallCtx(sp.Ctx(), phase2Req(r.txn, decision))
	})
	acked := true
	for _, o := range outs {
		if s.db.notePhase2(o.p.server, o.resp, o.err) {
			continue
		}
		if o.err != nil {
			s.dropPart(o.p.server)
		}
		s.db.parkIndoubt(parkedTxn{txn: r.txn, server: o.p.server, dp: r.dp})
		acked = false
	}
	return acked
}

// notePhase2 feeds one phase-2 answer to failover accounting — transport
// errors and give-ups ("severe" once the DLFM exhausted its retries) both
// count — and reports whether the participant applied the decision.
func (db *DB) notePhase2(server string, resp rpc.Response, err error) bool {
	switch {
	case err != nil:
		db.noteDLFMFailure(server, err)
	case resp.Code == "severe":
		db.noteDLFMFailure(server, fmt.Errorf("phase-2 give-up: %s", resp.Msg))
	default:
		db.noteDLFMSuccess(server)
		return true
	}
	return false
}

// phase2Req is the phase-2 message carrying decision.
func phase2Req(txn int64, decision string) any {
	if decision == "commit" {
		return rpc.CommitReq{Txn: txn}
	}
	return rpc.AbortReq{Txn: txn}
}

// Phase 1 and phase 2 are independent per-participant exchanges, so the
// host issues them concurrently, bounded by Config.CommitFanout. All
// accounting and participant bookkeeping stays on the session goroutine
// after the join: Session state is not goroutine-safe.

// defaultCommitFanout is the fan-out bound when Config.CommitFanout is 0 —
// wide enough to cover the e10 sweep's 8 participants in one wave.
const defaultCommitFanout = 8

// fanLimit resolves the configured fan-out bound.
func (db *DB) fanLimit() int {
	if db.cfg.CommitFanout > 0 {
		return db.cfg.CommitFanout
	}
	return defaultCommitFanout
}

// partOutcome is one participant's result from a fanned-out call.
type partOutcome struct {
	p    *participant
	resp rpc.Response
	err  error
	// skipped: never issued because an earlier participant had already
	// failed (stopOnFailure); the caller's abort path covers it.
	skipped bool
}

// failed reports whether the call was issued and did not come back OK.
func (o *partOutcome) failed() bool {
	return !o.skipped && (o.err != nil || !o.resp.OK())
}

// fanoutParts runs call against every participant with at most fanLimit in
// flight, returning outcomes in input order. With stopOnFailure, the first
// transport error or non-OK response prevents every call that has not
// started yet; calls already on the wire run to completion so their votes
// are accounted. A limit of 1 is the sequential loop.
func (db *DB) fanoutParts(parts []*participant, stopOnFailure bool, call func(*participant) (rpc.Response, error)) []partOutcome {
	outs := make([]partOutcome, len(parts))
	var failed atomic.Bool
	run := func(o *partOutcome) {
		if stopOnFailure && failed.Load() {
			o.skipped = true
			return
		}
		o.resp, o.err = call(o.p)
		if o.failed() {
			failed.Store(true)
		}
	}
	for i, p := range parts {
		outs[i].p = p
	}
	if db.fanLimit() <= 1 || len(parts) <= 1 {
		for i := range outs {
			run(&outs[i])
		}
		return outs
	}
	var wg sync.WaitGroup
	sem := make(chan struct{}, db.fanLimit())
	for i := range outs {
		wg.Add(1)
		go func(o *partOutcome) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			run(o)
		}(&outs[i])
	}
	wg.Wait()
	return outs
}
