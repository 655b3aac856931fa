package core

import (
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/rpc"
	"repro/internal/value"
)

// fpPhase2Work fires at the start of every phase-2 commit/abort attempt
// (detail "commit" or "abort"). Armed with a retryable engine error it
// drives the retry loop to its cap.
var fpPhase2Work = fault.P("core.phase2.work")

// Phase 2 of the two-phase commit protocol (Sections 3.3 and 4, Figure 4).
//
// Unlike a database's own commit, DLFM's commit processing runs SQL against
// the local database — retrieving File-table entries, purging delayed
// deletes, updating the Archive and Transaction tables — and therefore
// ACQUIRES NEW LOCKS. "Since deadlocks are always possible when new locks
// are acquired, a retry logic is included in the commit processing and it
// keeps retrying until it succeeds."

// chownWork is one takeover/release the Chown daemon performs after the
// commit's local commit succeeds. Only files in a group with full control
// or recovery have any (group.appendChown).
type chownWork struct {
	name     string
	owner    string // original owner, for release
	takeover bool
	fullctl  bool // takeover: the database owns the file; else read-only
}

// phase2Commit completes txn's commit, retrying on deadlock/timeout until
// it succeeds. It is idempotent: retrying a commit whose transaction entry
// is already gone returns success, so the host may safely re-drive it after
// a lost acknowledgement.
func (s *Server) phase2Commit(conn *engine.Conn, txn int64) rpc.Response {
	start := time.Now()
	bo := fault.Backoff{Base: s.cfg.Phase2Backoff, Cap: s.cfg.Phase2BackoffCap}
	for attempt := 0; ; attempt++ {
		resp, retry := s.tryCommit(conn, txn)
		if !retry {
			if resp.OK() {
				s.phase2Hist.Observe(time.Since(start))
			}
			return resp
		}
		if conn.InTxn() {
			conn.Rollback()
		}
		if s.cfg.Phase2MaxRetries > 0 && attempt+1 >= s.cfg.Phase2MaxRetries {
			return s.phase2Giveup(txn, "commit")
		}
		s.stats.Phase2Retries.Add(1)
		s.tracer.Emit(txn, "2pc", "phase2_retry", "commit")
		if d := bo.Delay(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

// phase2Giveup surfaces a transaction whose phase-2 processing exhausted
// its retry cap. The transaction entry is untouched — still 'P' for a
// commit, still pending compensation for an abort — so the host's indoubt
// resolution daemon re-drives it once the local contention clears; the cap
// only stops this agent from spinning forever while holding its connection.
func (s *Server) phase2Giveup(txn int64, what string) rpc.Response {
	s.stats.Phase2Giveups.Add(1)
	s.tracer.Emit(txn, "2pc", "phase2_giveup", what)
	return failCode("severe", "phase-2 %s of transaction %d gave up after %d attempts", what, txn, s.cfg.Phase2MaxRetries)
}

func (s *Server) tryCommit(conn *engine.Conn, txn int64) (rpc.Response, bool) {
	if s.cfg.Phase2Delay > 0 {
		time.Sleep(s.cfg.Phase2Delay)
	}
	fatal := func(err error) (rpc.Response, bool) {
		if conn.InTxn() {
			conn.Rollback()
		}
		if engine.IsRetryable(err) {
			return rpc.Response{}, true
		}
		return fail(err), false
	}

	if err := fpPhase2Work.FireDetail("commit"); err != nil {
		return fatal(err)
	}
	rows, err := s.stmts.get(sqlTxnState).Query(conn, value.Int(txn))
	if err != nil {
		return fatal(err)
	}
	if len(rows) == 0 || rows[0][0].Text() != "P" {
		// Already committed (retry after a lost ack, or a one-phase outcome
		// kept for the host), or nothing was ever hardened. Either way there
		// is nothing to do — unless the entry records an abort.
		if conn.InTxn() {
			if err := conn.Commit(); err != nil {
				return fatal(err)
			}
		}
		if len(rows) > 0 && rows[0][0].Text() == "A" {
			return failCode("severe", "transaction %d was aborted here", txn), false
		}
		return ok, false
	}
	ngroups := rows[0][1].Int64()

	work, readied, err := s.gatherCommitWork(conn, txn)
	if err != nil {
		return fatal(err)
	}
	if ngroups > 0 {
		// Keep the entry for the Delete Group daemon's resume logic.
		if _, err := s.stmts.get(sqlMarkTxnCmt).Exec(conn, value.Int(txn)); err != nil {
			return fatal(err)
		}
	} else {
		if _, err := s.stmts.get(sqlDeleteTxn).Exec(conn, value.Int(txn)); err != nil {
			return fatal(err)
		}
	}
	if err := conn.Commit(); err != nil {
		return fatal(err)
	}
	s.afterCommit(txn, ngroups, work, readied)
	return ok, false
}

// afterCommit is what follows a durable commit, phase-2 or one-phase: the
// file-system side effects — "actual takeover or release of the file from
// file system is done during the second phase of the commit processing"
// via the Chown daemon (Sections 3.2, 3.5); failures there (file vanished)
// are tolerated, the metadata is authoritative — then the daemons with new
// work.
func (s *Server) afterCommit(txn, ngroups int64, work []chownWork, readied bool) {
	for _, w := range work {
		switch {
		case !w.takeover:
			s.chown.release(w.name, w.owner)
		case w.fullctl:
			// Full access control: the file becomes the database's.
			s.chown.takeover(w.name)
		default:
			// Recovery: write permission is removed so the asynchronous
			// backup reads a stable image (Section 3.4).
			s.chown.makeReadOnly(w.name)
		}
	}
	if ngroups > 0 {
		s.delGroup.notify(txn)
	}
	if readied {
		s.copyd.kick()
	}
	s.stats.Commits.Add(1)
}

// gatherCommitWork performs the per-file commit work inside the caller's
// open transaction by reading it back from the tables — collect the chown
// releases and takeovers, with their groups' attributes, before purging
// (the delayed-delete entries being purged are exactly the no-recovery
// unlinked files that still need their release), make queued archive
// copies visible to the Copy daemon, and physically delete entries the
// transaction marked deleted, which is only safe now that the outcome is
// decided (Section 3.2). Phase 2 always takes this path: the prepared rows
// were committed locally and others may have changed them since. A
// one-phase commit takes it only when its agent's log is stale. Releases
// come before takeovers, so a name unlinked and linked again by the
// transaction ends taken over. readied reports whether the Copy daemon has
// new work.
func (s *Server) gatherCommitWork(conn *engine.Conn, txn int64) (work []chownWork, readied bool, err error) {
	groups := make(map[int64]*group)
	for _, q := range []struct {
		sql      string
		takeover bool
	}{{sqlFilesUnlinkedBy, false}, {sqlFilesLinkedBy, true}} {
		rows, err := s.stmts.get(q.sql).Query(conn, value.Int(txn))
		if err != nil {
			return nil, false, err
		}
		for _, r := range rows {
			id := r[1].Int64()
			g, seen := groups[id]
			if !seen {
				if g, err = s.groupInfo(conn, id); err != nil {
					return nil, false, err
				}
				groups[id] = g
			}
			work = g.appendChown(work, r[0].Text(), r[2].Text(), q.takeover)
		}
	}
	// Only a group with recovery queues archive copies; waking the Copy
	// daemon for nothing would cost it a scan of the Archive table.
	n, err := s.stmts.get(sqlReadyArchives).Exec(conn, value.Int(txn))
	if err != nil {
		return nil, false, err
	}
	if _, err := s.stmts.get(sqlPurgeMarkedDel).Exec(conn, value.Int(txn)); err != nil {
		return nil, false, err
	}
	return work, n > 0, nil
}

// phase2Abort undoes txn. Before prepare this is a plain local rollback
// (handled by the agent); here we handle the hard case: the transaction's
// changes are already committed in the local database, so they are undone
// with the delayed-update compensation — "an innovative scheme to enable
// rolling back transaction update after local database commit" (Abstract,
// Section 4). Like commit, it retries until it succeeds. With record the
// entry is kept as a recorded abort ('A') instead of deleted.
func (s *Server) phase2Abort(conn *engine.Conn, txn int64, record bool) rpc.Response {
	bo := fault.Backoff{Base: s.cfg.Phase2Backoff, Cap: s.cfg.Phase2BackoffCap}
	for attempt := 0; ; attempt++ {
		resp, retry := s.tryAbort(conn, txn, record)
		if !retry {
			return resp
		}
		if conn.InTxn() {
			conn.Rollback()
		}
		if s.cfg.Phase2MaxRetries > 0 && attempt+1 >= s.cfg.Phase2MaxRetries {
			return s.phase2Giveup(txn, "abort")
		}
		s.stats.Phase2Retries.Add(1)
		s.tracer.Emit(txn, "2pc", "phase2_retry", "abort")
		if d := bo.Delay(attempt); d > 0 {
			time.Sleep(d)
		}
	}
}

func (s *Server) tryAbort(conn *engine.Conn, txn int64, record bool) (rpc.Response, bool) {
	fatal := func(err error) (rpc.Response, bool) {
		if conn.InTxn() {
			conn.Rollback()
		}
		if engine.IsRetryable(err) {
			return rpc.Response{}, true
		}
		return fail(err), false
	}

	if err := fpPhase2Work.FireDetail("abort"); err != nil {
		return fatal(err)
	}
	rows, err := s.stmts.get(sqlTxnState).Query(conn, value.Int(txn))
	if err != nil {
		return fatal(err)
	}
	if len(rows) == 0 || rows[0][0].Text() == "A" {
		// Nothing hardened: the agent's local rollback already undid the
		// in-flight changes (or the abort is a retry, or already recorded).
		if conn.InTxn() {
			if err := conn.Commit(); err != nil {
				return fatal(err)
			}
		}
		s.stats.Aborts.Add(1)
		return ok, false
	}
	if st := rows[0][0].Text(); st == "C" || st == "O" {
		conn.Commit()
		return failCode("severe", "transaction %d committed here", txn), false
	}

	// Compensation, in an order that respects the unique (name, chkflag)
	// index: first remove entries this transaction linked (they occupy
	// chkflag 0), then restore the entries it unlinked back to linked.
	if _, err := s.stmts.get(sqlAbortLinks).Exec(conn, value.Int(txn)); err != nil {
		return fatal(err)
	}
	if _, err := s.stmts.get(sqlAbortUnlinks).Exec(conn, value.Int(txn), value.Int(txn)); err != nil {
		return fatal(err)
	}
	if _, err := s.stmts.get(sqlAbortArchives).Exec(conn, value.Int(txn)); err != nil {
		return fatal(err)
	}
	if _, err := s.stmts.get(sqlRestoreGroups).Exec(conn, value.Int(txn)); err != nil {
		return fatal(err)
	}
	// Groups this transaction created never became visible to the host
	// (its dl_grpsrv insert rolled back with it): remove them.
	if _, err := s.stmts.get(sqlAbortGroups).Exec(conn, value.Int(txn)); err != nil {
		return fatal(err)
	}
	if record {
		_, err = s.stmts.get(sqlSetTxnState).Exec(conn, value.Str("A"), value.Int(0), value.Int(txn))
	} else {
		_, err = s.stmts.get(sqlDeleteTxn).Exec(conn, value.Int(txn))
	}
	if err != nil {
		return fatal(err)
	}
	if err := conn.Commit(); err != nil {
		return fatal(err)
	}
	s.stats.Compensations.Add(1)
	s.stats.Aborts.Add(1)
	s.tracer.Emit(txn, "2pc", "compensation", "")
	return ok, false
}
