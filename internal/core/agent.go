package core

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/value"
)

// Fault points on the classic 2PC failure windows (Section 3.3): after the
// prepare's local commit the DLFM holds a hardened 'P' entry but the vote
// may never reach the host; after phase-2 work the decision is applied but
// the acknowledgement may be lost. Crash/drop armings at these points
// exercise indoubt resolution and idempotent re-issue respectively.
var (
	fpPrepareAfterCommit = fault.P("core.prepare.after_local_commit")
	fpPhase2BeforeAck    = fault.P("core.phase2.before_ack")
)

// ChildAgent serves one host connection, exactly as the paper's DLFM main
// daemon spawns a child agent per DB2 agent connection (Section 3.5). It
// owns one local-database connection; the host transaction's sub-
// transaction context lives here from the transaction's first request to
// its Commit/Abort (or one-phase commit).
type ChildAgent struct {
	srv  *Server
	conn *engine.Conn

	cur     int64 // active host transaction id (0 = none)
	batched bool  // long-running utility transaction (Section 4)
	batchN  int
	ops     int  // operations since the last intermediate commit
	txnRow  bool // an 'F' row for cur exists in dlfm_txn
	wrote   bool // cur performed a write on this DLFM (read-only vote)

	// settled is the transaction this connection last committed in one
	// phase. The host sends another request on a connection only once it
	// has the reply and its own branch has landed — it abandons the
	// connection otherwise — so the next one-phase commit or Forget here
	// deletes that outcome in its local commit. A connection that ends
	// first leaves it to the host's sweep.
	settled int64
}

// NewAgent implements rpc.AgentFactory: one child agent per connection.
func (s *Server) NewAgent() rpc.Agent {
	return &ChildAgent{srv: s, conn: s.db.Connect()}
}

// Close abandons the agent's local transaction when the host disconnects.
func (a *ChildAgent) Close() {
	if a.conn.InTxn() {
		a.conn.Rollback()
	}
	a.resetTxn()
}

// errCode maps local-database errors onto the wire codes the host's
// datalink engine reacts to. Deadlock and timeout mean the local database
// already rolled the sub-transaction back, so the host must roll back the
// full transaction (Section 3.2).
func errCode(err error) string {
	switch {
	case errors.Is(err, engine.ErrDeadlock):
		return "deadlock"
	case errors.Is(err, engine.ErrTimeout):
		return "timeout"
	case errors.Is(err, engine.ErrDuplicate):
		return "duplicate"
	case errors.Is(err, engine.ErrLogFull):
		return "logfull"
	default:
		return "severe"
	}
}

func fail(err error) rpc.Response {
	return rpc.Response{Code: errCode(err), Msg: err.Error()}
}

func failCode(code, format string, args ...any) rpc.Response {
	return rpc.Response{Code: code, Msg: fmt.Sprintf(format, args...)}
}

var ok = rpc.Response{}

// HandleCtx implements rpc.TracedAgent: the span context carried in the RPC
// envelope parents a dispatch span, and the agent's database connection
// adopts it, so lock waits and WAL fsyncs inside the local database
// attribute to the originating host transaction. The dispatch op is
// deliberately not an attribution bucket ("handle:*", not "rpc:*") so the
// inner lock_wait/wal_fsync spans credit their own buckets while the
// coordinator's rpc:* spans absorb the rest as network+dispatch time.
func (a *ChildAgent) HandleCtx(ctx obs.SpanCtx, req any) rpc.Response {
	sp := a.srv.tracer.StartSpan(ctx, "agent", "handle:"+rpc.Name(req))
	defer sp.End()
	switch r := req.(type) {
	case rpc.LinkFileReq:
		sp.Attr("file", r.Name)
	case rpc.UnlinkFileReq:
		sp.Attr("file", r.Name)
	}
	a.conn.SetSpanCtx(sp.Ctx())
	return a.Handle(req)
}

// Handle dispatches one request. Requests on a connection are served
// serially by the RPC layer.
func (a *ChildAgent) Handle(req any) rpc.Response {
	if a.srv.IsStandby() {
		// Write fencing: a hot spare serves reads and the replication
		// stream only. Anything transactional is refused until Promote.
		switch req.(type) {
		case rpc.PingReq, rpc.StatsReq, rpc.IsLinkedReq, rpc.ReplFetchReq:
		default:
			return failCode("standby", "server %s is a standby; %s refused", a.srv.cfg.ServerName, rpc.Name(req))
		}
	}
	switch r := req.(type) {
	case rpc.BeginTxnReq:
		return a.beginTxn(r)
	case rpc.ForgetReq:
		return a.forget(r)
	case rpc.LinkFileReq:
		return a.linkFile(r)
	case rpc.UnlinkFileReq:
		return a.unlinkFile(r)
	case rpc.CreateGroupReq:
		return a.createGroup(r)
	case rpc.DeleteGroupReq:
		return a.deleteGroup(r)
	case rpc.PrepareReq:
		return a.prepare(r)
	case rpc.CommitReq:
		return a.commit(r)
	case rpc.AbortReq:
		return a.abort(r)
	case rpc.OnePhaseCommitReq:
		return a.onePhaseCommit(r)
	case rpc.QueryOutcomeReq:
		return a.queryOutcome(r)
	case rpc.IsLinkedReq:
		if a.srv.IsStandby() {
			// No Upcall daemon runs on a standby; answer from the
			// replicated metadata directly.
			return a.srv.isLinkedStandby(a.conn, r.Name)
		}
		st, err := a.srv.upcall.IsLinked(r.Name)
		if err != nil {
			return fail(err)
		}
		return rpc.Response{Linked: st.Linked, FullControl: st.FullControl}
	case rpc.ListIndoubtReq:
		return a.listIndoubt(r)
	case rpc.WaitArchiveReq:
		return a.srv.waitArchive(a.conn, r.RecID)
	case rpc.RegisterBackupReq:
		return a.srv.registerBackup(a.conn, r.BackupID, r.RecID)
	case rpc.RestoreToReq:
		return a.srv.restoreTo(a.conn, r.RecID)
	case rpc.ReconcileReq:
		return a.srv.reconcile(a.conn, r)
	case rpc.ReplFetchReq:
		resp := ServeReplFetch(a.srv.db, r)
		if resp.OK() {
			a.srv.stats.ReplFetches.Add(1)
		}
		return resp
	case rpc.MigrateManifestReq:
		return a.migrateManifest()
	case rpc.FetchFileReq:
		return a.fetchFile(r)
	case rpc.MigratePutReq:
		return a.migratePut(r)
	case rpc.MigrateDelReq:
		return a.migrateDel(r)
	case rpc.PingReq:
		return rpc.Response{Msg: "dlfm:" + a.srv.cfg.ServerName}
	case rpc.StatsReq:
		return rpc.Response{N: a.srv.stats.Links.Load()}
	default:
		return failCode("severe", "unknown request type %T", req)
	}
}

// requireTxn validates the request's transaction context. The first request
// of a transaction adopts its id — the host sends BeginTransaction only for
// a batched utility transaction — and so does a fresh agent resuming one
// after a reconnect (indoubt resolution).
func (a *ChildAgent) requireTxn(txn int64) error {
	if txn == 0 {
		return errors.New("core: transaction id 0 is invalid")
	}
	if a.cur == 0 {
		a.resetTxn()
		a.cur = txn
		a.srv.serving.add(txn, 1)
		return nil
	}
	if a.cur != txn {
		return fmt.Errorf("core: agent serving transaction %d, got request for %d", a.cur, txn)
	}
	return nil
}

// beginTxn is the explicit BeginTransaction; Batched marks a utility
// transaction that commits locally every BatchN operations.
func (a *ChildAgent) beginTxn(r rpc.BeginTxnReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	if r.Batched {
		a.batched, a.batchN = true, r.BatchN
		if a.batchN <= 0 {
			a.batchN = a.srv.cfg.BatchCommitN
		}
	}
	return ok
}

// resetTxn clears the agent's transaction context after commit/abort.
func (a *ChildAgent) resetTxn() {
	if a.cur != 0 {
		a.srv.serving.add(a.cur, -1)
	}
	a.cur = 0
	a.batched = false
	a.batchN = 0
	a.ops = 0
	a.txnRow = false
	a.wrote = false
}

// maybeBatchCommit implements the Section 4 lesson for long-running
// utilities: DLFM recognizes batched transactions and locally commits every
// N operations. On the first intermediate commit the transaction is entered
// in dlfm_txn as in-flight ('F') so a crash can find its pieces.
func (a *ChildAgent) maybeBatchCommit() error {
	if !a.batched {
		return nil
	}
	a.ops++
	if a.ops%a.batchN != 0 {
		return nil
	}
	if !a.txnRow {
		if _, err := a.srv.stmts.get(sqlInsertTxn).Exec(a.conn,
			value.Int(a.cur), value.Str("F"), value.Int(0), value.Int(a.srv.now())); err != nil {
			return err
		}
		a.txnRow = true
	}
	if err := a.conn.Commit(); err != nil {
		return err
	}
	a.srv.stats.BatchCommits.Add(1)
	return nil
}

// linkFile applies (or, with InBackout, undoes) a LinkFile operation
// (Section 3.2). The two checks the paper requires before inserting: the
// file must exist on the file server, and no linked entry may exist — the
// latter enforced atomically by the unique (name, chkflag) index.
func (a *ChildAgent) linkFile(r rpc.LinkFileReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	a.wrote = true
	start := time.Now()
	if r.InBackout {
		// Undo a link performed earlier in this transaction: delete the
		// entry it inserted, plus its pending archive request.
		if _, err := a.srv.stmts.get(sqlBackoutLink).Exec(a.conn, value.Str(r.Name), value.Int(r.Txn)); err != nil {
			return fail(err)
		}
		if _, err := a.srv.stmts.get(sqlBackoutLinkArch).Exec(a.conn, value.Str(r.Name), value.Int(r.Txn)); err != nil {
			return fail(err)
		}
		a.srv.stats.Backouts.Add(1)
		return ok
	}

	grp, err := a.srv.groupInfo(a.conn, r.Grp)
	if err != nil {
		return fail(err)
	}
	if grp == nil || grp.state != "A" {
		return failCode("nogroup", "file group %d does not exist or is deleted", r.Grp)
	}
	fi, err := a.srv.fs.Stat(r.Name)
	if err != nil {
		return failCode("nofile", "file %s not found on server %s", r.Name, a.srv.cfg.ServerName)
	}
	if _, err := a.srv.stmts.get(sqlInsertFile).Exec(a.conn,
		value.Str(r.Name), value.Int(r.Grp), value.Int(r.RecID),
		value.Int(r.Txn), value.Str(fi.Owner)); err != nil {
		if errors.Is(err, engine.ErrDuplicate) {
			return failCode("duplicate", "file %s is already linked", r.Name)
		}
		return fail(err)
	}
	if grp.recovery {
		if _, err := a.srv.stmts.get(sqlInsertArchive).Exec(a.conn,
			value.Str(r.Name), value.Int(r.RecID), value.Int(r.Grp), value.Int(r.Txn)); err != nil {
			return fail(err)
		}
	}
	if err := a.maybeBatchCommit(); err != nil {
		return fail(err)
	}
	a.srv.stats.Links.Add(1)
	a.srv.linkHist.Observe(time.Since(start))
	return ok
}

// unlinkFile applies (or undoes) an UnlinkFile operation. The entry is
// never physically deleted here: with recovery it stays for point-in-time
// restore; without recovery it is only marked deleted (del_txn) and is
// purged in phase 2 — "we could not delete the entry earlier than the
// second phase of commit since we would not be able to undo the action"
// (Section 3.2).
func (a *ChildAgent) unlinkFile(r rpc.UnlinkFileReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	a.wrote = true
	if r.InBackout {
		n, err := a.srv.stmts.get(sqlBackoutUnlink).Exec(a.conn,
			value.Str(r.Name), value.Int(r.Txn), value.Int(r.RecID))
		if err != nil {
			return fail(err)
		}
		if n == 0 {
			return failCode("notlinked", "no unlinked entry of transaction %d (recovery id %d) for %s", r.Txn, r.RecID, r.Name)
		}
		a.srv.stats.Backouts.Add(1)
		return ok
	}

	rows, err := a.srv.stmts.get(sqlFindLinked).Query(a.conn, value.Str(r.Name))
	if err != nil {
		return fail(err)
	}
	if len(rows) == 0 {
		return failCode("notlinked", "file %s is not linked", r.Name)
	}
	grpID := rows[0][0].Int64()
	grp, err := a.srv.groupInfo(a.conn, grpID)
	if err != nil {
		return fail(err)
	}
	recovery := grp != nil && grp.recovery

	var n int64
	if recovery {
		n, err = a.srv.stmts.get(sqlUnlinkKeep).Exec(a.conn,
			value.Int(r.RecID), value.Int(r.Txn), value.Int(a.srv.now()), value.Str(r.Name))
	} else {
		n, err = a.srv.stmts.get(sqlUnlinkMarkDel).Exec(a.conn,
			value.Int(r.RecID), value.Int(r.Txn), value.Int(a.srv.now()), value.Int(r.Txn), value.Str(r.Name))
	}
	if err != nil {
		return fail(err)
	}
	if n == 0 {
		return failCode("notlinked", "file %s is not linked", r.Name)
	}
	if err := a.maybeBatchCommit(); err != nil {
		return fail(err)
	}
	a.srv.stats.Unlinks.Add(1)
	return ok
}

func (a *ChildAgent) createGroup(r rpc.CreateGroupReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	a.wrote = true
	rec, full := int64(0), int64(0)
	if r.Recovery {
		rec = 1
	}
	if r.FullControl {
		full = 1
	}
	if _, err := a.srv.stmts.get(sqlInsertGroup).Exec(a.conn,
		value.Int(r.Grp), value.Int(rec), value.Int(full), value.Int(r.Txn)); err != nil {
		return fail(err)
	}
	return ok
}

// deleteGroup marks the group deleted in the forward progress of the DROP
// TABLE transaction; the Delete Group daemon unlinks its files after
// commit (Section 3.5).
func (a *ChildAgent) deleteGroup(r rpc.DeleteGroupReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	a.wrote = true
	n, err := a.srv.stmts.get(sqlMarkGroupDeleted).Exec(a.conn, value.Int(r.Txn), value.Int(r.Grp))
	if err != nil {
		return fail(err)
	}
	if n == 0 {
		return failCode("nogroup", "file group %d does not exist or is already deleted", r.Grp)
	}
	return ok
}

// prepare is phase 1: the number of groups this transaction deleted is
// recorded with the transaction entry, the entry is inserted (or the
// in-flight entry of a batched transaction promoted) as prepared, and the
// local database commit hardens everything (Section 3.3).
func (a *ChildAgent) prepare(r rpc.PrepareReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	if !a.wrote && !a.txnRow {
		// Read-only vote: this participant made no changes, so it has
		// nothing to harden and no stake in the outcome. Release everything
		// now and tell the coordinator to leave us out of phase 2 — no 'P'
		// entry, no second fsync, no second RPC.
		if a.conn.InTxn() {
			a.conn.Rollback()
		}
		a.srv.stats.ReadOnlyVotes.Add(1)
		a.srv.tracer.Emit(r.Txn, "agent", "prepare_vote_readonly", "")
		a.resetTxn()
		return rpc.Response{ReadOnly: true}
	}
	start := time.Now()
	ngroups, _, err := a.srv.stmts.get(sqlCountGroupsDel).QueryInt(a.conn, value.Int(r.Txn))
	if err != nil {
		a.voteNo()
		return fail(err)
	}
	if err := a.hardenTxn("P", ngroups); err != nil {
		a.voteNo()
		return fail(err)
	}
	if err := a.conn.Commit(); err != nil {
		a.voteNo()
		return fail(err)
	}
	if err := fpPrepareAfterCommit.Fire(); err != nil {
		// The 'P' entry is already durable; the vote is lost in transit.
		// The transaction is now indoubt and waits for resolution.
		return failCode("severe", "prepare of transaction %d: %v", r.Txn, err)
	}
	a.srv.stats.Prepares.Add(1)
	a.srv.prepareHist.Observe(time.Since(start))
	return ok
}

// voteNo rolls the local transaction back after a failed prepare.
func (a *ChildAgent) voteNo() {
	a.srv.stats.PrepareFails.Add(1)
	a.srv.tracer.Emit(a.cur, "agent", "prepare_vote_no", "")
	if a.conn.InTxn() {
		a.conn.Rollback()
	}
}

func (a *ChildAgent) commit(r rpc.CommitReq) rpc.Response {
	if r.Txn == 0 || (a.cur != 0 && a.cur != r.Txn) {
		return failCode("severe", "commit for transaction %d on agent serving %d", r.Txn, a.cur)
	}
	resp := a.srv.phase2Commit(a.conn, r.Txn)
	if err := fpPhase2BeforeAck.FireDetail("commit"); err != nil {
		a.resetTxn()
		return failCode("severe", "commit ack of transaction %d: %v", r.Txn, err)
	}
	a.resetTxn()
	return resp
}

func (a *ChildAgent) abort(r rpc.AbortReq) rpc.Response {
	if r.Txn == 0 || (a.cur != 0 && a.cur != r.Txn) {
		return failCode("severe", "abort for transaction %d on agent serving %d", r.Txn, a.cur)
	}
	// Forward-progress abort: discard the in-flight local transaction.
	if a.conn.InTxn() {
		a.conn.Rollback()
	}
	resp := a.srv.phase2Abort(a.conn, r.Txn, false)
	if err := fpPhase2BeforeAck.FireDetail("abort"); err != nil {
		a.resetTxn()
		return failCode("severe", "abort ack of transaction %d: %v", r.Txn, err)
	}
	a.resetTxn()
	return resp
}

// onePhaseCommit commits a transaction this DLFM alone took part in: the
// host makes it the decider. The transaction entry is hardened directly as
// a kept one-phase outcome ('O') and the phase-2 work runs in the same
// local transaction — one fsync and one RPC where classic 2PC needs two of
// each. Any local failure before the commit aborts the transaction (the
// decider votes no by dying); a lost acknowledgement is resolved by the
// host with QueryOutcome against the kept entry, which stays until a later
// request forgets it. The connection's previous one-phase outcome is
// forgotten in the same local commit.
func (a *ChildAgent) onePhaseCommit(r rpc.OnePhaseCommitReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	fatal := func(err error) rpc.Response {
		// The decider votes no: roll everything back — a batched
		// transaction's intermediate commits too — and report the abort.
		if a.conn.InTxn() {
			a.conn.Rollback()
		}
		if a.txnRow {
			a.srv.phase2Abort(a.conn, r.Txn, false)
		}
		a.srv.stats.PrepareFails.Add(1)
		a.srv.tracer.Emit(r.Txn, "agent", "one_phase_abort", "")
		a.resetTxn()
		return fail(err)
	}
	if !a.conn.InTxn() && !a.txnRow {
		// Nothing was ever done here: an empty transaction commits
		// trivially and leaves no outcome to keep — committed and aborted
		// are the same here. Only forgetting needs a local commit.
		if err := a.forgetSettled(nil); err != nil {
			return fatal(err)
		}
		a.resetTxn()
		return ok
	}
	ngroups, _, err := a.srv.stmts.get(sqlCountGroupsDel).QueryInt(a.conn, value.Int(r.Txn))
	if err != nil {
		return fatal(err)
	}
	if a.settled != 0 {
		if err := a.srv.forgetOutcomes(a.conn, []int64{a.settled}); err != nil {
			return fatal(err)
		}
	}
	// A QueryOutcome that already answered "none" left an 'A' entry: the
	// insert collides on the unique txnid and the commit is refused.
	if err := a.hardenTxn("O", ngroups); err != nil {
		return fatal(err)
	}
	work, readied, err := a.srv.gatherCommitWork(a.conn, r.Txn)
	if err != nil {
		return fatal(err)
	}
	if err := a.conn.Commit(); err != nil { // the single fsync
		return fatal(err)
	}
	a.settled = r.Txn
	a.srv.afterCommit(a.conn, r.Txn, ngroups, work, readied)
	a.srv.stats.OnePhaseCommits.Add(1)
	a.resetTxn()
	if err := fpPhase2BeforeAck.FireDetail("onephase"); err != nil {
		// The commit is durable but the acknowledgement is lost; the host
		// re-queries the outcome.
		return failCode("severe", "one-phase commit ack of transaction %d: %v", r.Txn, err)
	}
	return ok
}

// hardenTxn writes the current transaction's entry in state: inserted, or
// the in-flight entry of a batched transaction promoted.
func (a *ChildAgent) hardenTxn(state string, ngroups int64) error {
	if a.txnRow {
		_, err := a.srv.stmts.get(sqlSetTxnState).Exec(a.conn, value.Str(state), value.Int(ngroups), value.Int(a.cur))
		return err
	}
	_, err := a.srv.stmts.get(sqlInsertTxn).Exec(a.conn,
		value.Int(a.cur), value.Str(state), value.Int(ngroups), value.Int(a.srv.now()))
	return err
}

// queryOutcome reports the durable fate of a transaction from the local
// transaction table: "committed", "prepared", "inflight" (a batched
// transaction's intermediate commits) or "none". The host presumes abort on
// "none", so before answering it the agent records the abort ('A'): a
// one-phase commit of the transaction still on its way can then never
// commit here. The host forgets the 'A' entry like a kept outcome. A
// batched transaction in flight that no agent serves any more can never
// commit either — its connection died before the commit request — so its
// intermediate commits are compensated and the abort recorded with them.
func (a *ChildAgent) queryOutcome(r rpc.QueryOutcomeReq) rpc.Response {
	abort := func(err error) rpc.Response {
		if a.conn.InTxn() {
			a.conn.Rollback()
		}
		return fail(err)
	}
	rows, err := a.srv.stmts.get(sqlTxnState).Query(a.conn, value.Int(r.Txn))
	if err != nil {
		return abort(err)
	}
	state := "A"
	if len(rows) > 0 {
		state = rows[0][0].Text()
		if state == "F" && !a.srv.serving.has(r.Txn) {
			if resp := a.srv.phase2Abort(a.conn, r.Txn, true); !resp.OK() {
				return resp
			}
			return rpc.Response{Msg: "none"}
		}
	} else if _, err := a.srv.stmts.get(sqlInsertTxn).Exec(a.conn,
		value.Int(r.Txn), value.Str("A"), value.Int(0), value.Int(a.srv.now())); err != nil {
		// A duplicate means the transaction's own commit just landed; the
		// host asks again.
		return abort(err)
	}
	if err := a.conn.Commit(); err != nil {
		return abort(err)
	}
	switch state {
	case "C", "O":
		return rpc.Response{Msg: "committed"}
	case "P":
		return rpc.Response{Msg: "prepared"}
	case "A":
		return rpc.Response{Msg: "none"}
	}
	return rpc.Response{Msg: "inflight"}
}

// listIndoubt lists the prepared transactions, or with Kept the kept
// one-phase outcomes.
func (a *ChildAgent) listIndoubt(r rpc.ListIndoubtReq) rpc.Response {
	stmt := sqlIndoubtTxns
	if r.Kept {
		stmt = sqlKeptTxns
	}
	rows, err := a.srv.stmts.get(stmt).Query(a.conn)
	if err != nil {
		return fail(err)
	}
	if err := a.conn.Commit(); err != nil {
		return fail(err)
	}
	var txns []int64
	for _, r := range rows {
		txns = append(txns, r[0].Int64())
	}
	a.srv.stats.IndoubtReports.Add(1)
	return rpc.Response{Txns: txns}
}

// forget deletes kept outcomes the host no longer needs — those listed and
// the connection's settled one.
func (a *ChildAgent) forget(r rpc.ForgetReq) rpc.Response {
	if a.cur != 0 {
		return failCode("severe", "transaction %d still active on this connection", a.cur)
	}
	if err := a.forgetSettled(r.Txns); err != nil {
		return fail(err)
	}
	return ok
}

// forgetSettled deletes the kept outcomes of txns and of the connection's
// settled transaction in a local transaction of its own.
func (a *ChildAgent) forgetSettled(txns []int64) error {
	if a.settled != 0 {
		txns = append(txns, a.settled)
	}
	if err := a.srv.forgetOutcomes(a.conn, txns); err != nil {
		if a.conn.InTxn() {
			a.conn.Rollback()
		}
		return err
	}
	if a.conn.InTxn() {
		if err := a.conn.Commit(); err != nil {
			return err
		}
	}
	a.settled = 0
	return nil
}

// forgetOutcomes deletes the kept outcomes ('O', 'A') of txns inside the
// caller's local transaction. A one-phase outcome whose dropped groups the
// Delete Group daemon still owes becomes an ordinary committed entry ('C'),
// which the daemon deletes once it is done. A transaction an agent still
// serves keeps its entry: a one-phase commit of it may yet reach that
// agent, and only a recorded abort refuses it. The host's sweep retries
// those.
func (s *Server) forgetOutcomes(conn *engine.Conn, txns []int64) error {
	for _, txn := range txns {
		if s.serving.has(txn) {
			continue
		}
		n, err := s.stmts.get(sqlForgetTxn).Exec(conn, value.Int(txn))
		if err == nil && n == 0 {
			_, err = s.stmts.get(sqlHandOverTxn).Exec(conn, value.Int(txn))
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// groupInfo reads one file group's attributes within the caller's
// transaction.
type group struct {
	recovery bool
	fullctl  bool
	state    string
}

func (s *Server) groupInfo(conn *engine.Conn, grpID int64) (*group, error) {
	rows, err := s.stmts.get(sqlGroupLookup).Query(conn, value.Int(grpID))
	if err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, nil
	}
	return &group{
		recovery: rows[0][0].Int64() == 1,
		fullctl:  rows[0][1].Int64() == 1,
		state:    rows[0][2].Text(),
	}, nil
}

var _ fsim.Upcaller = (*upcallDaemon)(nil)
