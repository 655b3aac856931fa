package hostdb

import (
	"fmt"
	"time"
)

// XA global transactions (Section 3.3): "In the case of an XA transaction,
// the host database also generates a local transaction id that is
// different from the global XA transaction id … If the transaction is a
// branch of a global (distributed) transaction, prepare request to the
// DLFM is invoked as part of global prepare processing and commit/abort
// request is invoked when the outcome of the global transaction is known."
//
// Here the host database is itself a participant: an external transaction
// manager drives PrepareGlobal and later CommitGlobal/AbortGlobal. The
// host's prepare cascades phase 1 to every enlisted DLFM and then hardens
// its own branch with the engine's prepared-transaction support; the
// host-to-engine transaction-id mapping is made durable *inside* the
// prepared branch (table dl_xa), so that after a crash the DLFM sub-
// transactions can be resolved from the engine log's authoritative outcome.

// PrepareGlobal runs the pipeline's prepare and decide steps for this
// branch: the DLFMs vote, then the host hardens its own branch with the
// dl_xa mapping inside. After it returns nil the branch is indoubt until
// CommitGlobal or AbortGlobal delivers the external coordinator's decision.
func (s *Session) PrepareGlobal() error {
	if err := s.committable(); err != nil {
		return err
	}
	r := &commitRun{txn: s.txn, dp: atTM, start: time.Now(), parts: s.begunParts()}
	if err := s.prepare(r); err != nil {
		return s.abortCommit(err)
	}
	if _, err := s.decide(r); err != nil {
		return s.abortCommit(fmt.Errorf("%w: %v", ErrTxnRolledBack, err))
	}
	s.global = r
	return nil
}

// CommitGlobal completes a prepared branch after the global coordinator
// decided commit. The engine commit is the branch's durable decision point
// (DLFM resolution reads it from the engine log via dl_xa); if it fails the
// branch stays prepared for the coordinator to retry. Phase 2 follows.
func (s *Session) CommitGlobal() error {
	if s.global == nil {
		return fmt.Errorf("hostdb: no globally prepared transaction")
	}
	if err := s.conn.CommitPrepared(); err != nil {
		return err
	}
	return s.committed(s.global)
}

// AbortGlobal rolls a prepared branch back after the coordinator decided
// abort.
func (s *Session) AbortGlobal() error {
	if s.global == nil {
		return fmt.Errorf("hostdb: no globally prepared transaction")
	}
	if err := s.conn.RollbackPrepared(); err != nil {
		return err
	}
	return s.abortCommit(nil)
}

// HostIndoubtBranches lists host transaction ids whose branches crash
// recovery restored in the prepared state, for the external coordinator.
func (db *DB) HostIndoubtBranches() ([]int64, error) {
	engineIndoubt := make(map[int64]bool)
	for _, id := range db.eng.IndoubtTxns() {
		engineIndoubt[id] = true
	}
	if len(engineIndoubt) == 0 {
		return nil, nil
	}
	// dl_xa rows written by indoubt branches are X-locked by those very
	// branches; the diagnostic dump reads through the locks, which is what
	// a restart-time resolution utility needs.
	rows, err := db.eng.DumpTable("dl_xa")
	if err != nil {
		return nil, err
	}
	var out []int64
	for _, r := range rows {
		if engineIndoubt[r[1].Int64()] {
			out = append(out, r[0].Int64())
		}
	}
	return out, nil
}

// ResolveHostBranch applies the global coordinator's decision to an
// indoubt host branch after a crash: the engine branch is committed or
// rolled back, and the decision cascades to the DLFM sub-transactions.
func (db *DB) ResolveHostBranch(hostTxn int64, commit bool) error {
	engineTxn, err := db.xaBranch(hostTxn)
	if err != nil {
		return err
	}
	if engineTxn == 0 {
		return fmt.Errorf("hostdb: no XA mapping for host transaction %d", hostTxn)
	}
	if err := db.eng.ResolveIndoubt(engineTxn, commit); err != nil {
		return err
	}
	decision := "abort"
	if commit {
		decision = "commit"
	}
	// Cascade over fresh connections (the crash severed the session's); a
	// DLFM that misses it is settled by the indoubt sweep later.
	for _, server := range db.Servers() {
		db.callFresh(server, phase2Req(hostTxn, decision)) //nolint:errcheck
	}
	return nil
}

// xaBranch returns the engine transaction dl_xa maps hostTxn to, or 0.
func (db *DB) xaBranch(hostTxn int64) (int64, error) {
	rows, err := db.eng.DumpTable("dl_xa")
	if err != nil {
		return 0, err
	}
	for _, r := range rows {
		if r[0].Int64() == hostTxn {
			return r[1].Int64(), nil
		}
	}
	return 0, nil
}
