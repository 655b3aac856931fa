package hostdb

import (
	"fmt"
	"time"

	"repro/internal/rpc"
)

// The single-participant one-phase commit (Config.OnePhase): when exactly
// one DLFM is enlisted, the commit decision is delegated to it — the host
// hardens its own branch, sends one OnePhaseCommitReq (the participant's
// prepare and commit fused into a single forced write), and follows the
// participant's answer. Half the network round trips and half the forced
// log writes of 2PC, at the price of an ambiguity window when the reply is
// lost: the request is deliberately not idempotent (re-sending it on a
// fresh connection would be indistinguishable from a new empty
// transaction), so a lost reply is resolved by querying the participant's
// durable transaction state instead.
func (s *Session) commitOnePhase(p *participant) error {
	db := s.db
	txn := s.txn
	start := time.Now()
	root := db.tracer.StartRoot(txn, "host", "commit")
	defer root.End()
	if root != nil {
		s.conn.SetSpanCtx(root.Ctx())
	}

	// Harden the host branch first: the participant is the commit point,
	// so by the time it decides, the host must be able to follow either
	// way. No dl_outcome row — the participant's local state IS the
	// decision record. A host side that only read has nothing to harden.
	hardened := false
	if s.conn.InTxn() {
		if err := s.conn.PrepareTxn(); err != nil {
			return s.abortCommit(fmt.Errorf("%w: host prepare: %v", ErrTxnRolledBack, err))
		}
		hardened = true
	}

	sp := db.tracer.StartSpan(root.Ctx(), "host", "rpc:OnePhaseCommit").Attr("server", p.server)
	resp, err := p.client.CallCtx(sp.Ctx(), rpc.OnePhaseCommitReq{Txn: txn})
	sp.End()

	outcome := ""
	cause := ""
	switch {
	case err == nil && resp.OK():
		outcome = "commit"
	case err == nil:
		outcome = "abort"
		cause = fmt.Sprintf("%s: %s", resp.Code, resp.Msg)
	default:
		// Lost request or lost reply: ask the participant's durable state.
		db.noteDLFMFailure(p.server, err)
		s.dropPart(p.server)
		outcome, err = db.queryOutcome1PC(p.server, txn)
		if err != nil {
			// Participant unreachable: park the query for the resolution
			// daemon and heuristically roll the host branch back so the
			// session stays usable. If the participant did commit, this is
			// heuristic damage — the price of the fused protocol, taken
			// only after the retries above are exhausted.
			db.parkIndoubt(txn, p.server, "query")
			if hardened {
				s.conn.RollbackPrepared() //nolint:errcheck
			}
			s.finishTxn()
			db.stats.Aborts.Add(1)
			return fmt.Errorf("%w: one-phase commit of txn %d unresolved (%v); host branch heuristically rolled back, parked for resolution", ErrTxnRolledBack, txn, err)
		}
		cause = "resolved by outcome query"
	}

	if outcome == "commit" {
		if hardened {
			if err := s.conn.CommitPrepared(); err != nil {
				return fmt.Errorf("hostdb: txn %d committed at %s but host branch failed to land: %v", txn, p.server, err)
			}
		}
		db.stats.Commits.Add(1)
		db.stats.OnePhaseCommits.Add(1)
		db.commitHist.ObserveEx(time.Since(start), txn)
		s.finishTxn()
		return nil
	}
	if hardened {
		s.conn.RollbackPrepared() //nolint:errcheck
	}
	s.finishTxn()
	db.stats.Aborts.Add(1)
	return fmt.Errorf("%w: one-phase commit of txn %d refused at %s: %s", ErrTxnRolledBack, txn, p.server, cause)
}
