package hostdb

import (
	"errors"
	"fmt"

	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/rpc"
	"repro/internal/sql"
	"repro/internal/value"
)

// Errors surfaced by sessions.
var (
	// ErrTxnRolledBack: a severe DLFM error (deadlock/timeout in its local
	// database) forced a full-transaction rollback, as Section 3.2
	// prescribes ("the host database will always rollback the full
	// transaction").
	ErrTxnRolledBack = errors.New("hostdb: transaction rolled back")
	// ErrStatement: the statement failed and was backed out; the
	// transaction continues.
	ErrStatement = errors.New("hostdb: statement failed")
	// ErrCommitUnacked: the transaction IS committed — the decision is
	// durable (outcome record or acceptor quorum) — but the coordinator was
	// interrupted before every participant heard phase 2. Participants
	// settle through indoubt resolution (2PC) or their own outcome
	// learners (Paxos); callers must treat the transaction as committed.
	ErrCommitUnacked = errors.New("hostdb: committed but not acknowledged")
	// ErrOutcomeUnknown: the DLFM a one-phase commit delegated the decision
	// to could not be reached after the request was sent, so the
	// transaction may have committed or not. The host branch stays
	// prepared, its locks held, exactly as a host crash would leave it,
	// until ResolveIndoubts learns the outcome from the DLFM, which keeps it.
	ErrOutcomeUnknown = errors.New("hostdb: commit outcome unknown")
)

// participant is one DLFM enlisted in the current transaction.
type participant struct {
	server string
	client *rpc.Client
	begun  bool
}

// stmtOp records a DLFM operation of the in-flight statement, so a
// statement-level error can be compensated with in_backout requests
// (Section 3.2's savepoint rollback).
type stmtOp struct {
	server string
	name   string
	isLink bool
	recID  int64 // the operation's recovery id, identifying it for backout
}

// Session is one application connection to the host database, served by
// one DB2 agent in the paper's architecture. Not safe for concurrent use.
type Session struct {
	db   *DB
	conn *engine.Conn
	txn  int64
	// parts persist across transactions (the connection to a DLFM child
	// agent is long-lived); begun is reset per transaction.
	parts map[string]*participant
	dead  bool
	// global is an XA branch's run after PrepareGlobal: only
	// CommitGlobal/AbortGlobal are valid until it resolves.
	global *commitRun
	// batched makes every DLFM sub-transaction this session begins a
	// batched one (the Load utility): the DLFM commits locally every
	// Config.LoadBatchN operations.
	batched bool
	// stmtSpan is the span context of the statement currently executing,
	// parenting the per-operation DLFM RPC spans.
	stmtSpan obs.SpanCtx
}

// Session opens an application connection.
func (db *DB) Session() *Session {
	return &Session{db: db, conn: db.eng.Connect(), parts: make(map[string]*participant)}
}

// TxnID exposes the current host transaction id (0 when idle).
func (s *Session) TxnID() int64 { return s.txn }

// Close abandons any open transaction and disconnects from the DLFMs. A
// DLFM keeps the outcome of the last one-phase commit on each connection
// until a later request there forgets it, so each connection's last
// request is a Forget; one that fails leaves the outcome to the indoubt
// sweep.
func (s *Session) Close() {
	if s.txn != 0 {
		s.Rollback()
	}
	for _, p := range s.parts {
		p.client.Call(rpc.ForgetReq{}) //nolint:errcheck // best effort
		p.client.Close()
	}
	s.parts = nil
}

// begin starts a transaction if none is open. Starting a NEW transaction
// passes through admission control: under overload it fails with
// ErrOverload and the session stays idle — statements of an already-open
// transaction are never refused.
func (s *Session) begin() error {
	if s.txn == 0 {
		if err := s.db.admit(); err != nil {
			return err
		}
		s.txn = s.db.NextTxn()
		s.dead = false
		s.db.markActive(s.txn)
		// The host txn id doubles as the trace id. Attaching it to the
		// engine connection makes the engine bind its local txn id on the
		// implicit begin, so host-side lock waits and fsyncs find their
		// trace; the sampling decision happens inside the tracer.
		if s.db.tracer.Sampled(s.txn) {
			s.conn.SetSpanCtx(obs.SpanCtx{Trace: s.txn})
		}
	}
	return nil
}

// part returns (dialing if necessary) the participant for server and
// enlists it in the current transaction. The first request sent there
// begins the DLFM sub-transaction; only a batched one needs an explicit
// BeginTransaction to carry its batch size.
func (s *Session) part(server string) (*participant, error) {
	p := s.parts[server]
	if p == nil {
		dial, err := s.db.dialer(server)
		if err != nil {
			return nil, err
		}
		client, err := dial()
		if err != nil {
			s.db.noteDLFMFailure(server, err)
			return nil, fmt.Errorf("hostdb: connect to DLFM %q: %w", server, err)
		}
		client.SetTracer(s.db.tracer)
		p = &participant{server: server, client: client}
		s.parts[server] = p
	}
	if !p.begun && s.batched {
		resp, err := p.client.Call(rpc.BeginTxnReq{Txn: s.txn, Batched: true, BatchN: s.db.cfg.LoadBatchN})
		if err != nil {
			s.db.noteDLFMFailure(server, err)
			s.dropPart(server)
			return nil, err
		}
		if !resp.OK() {
			return nil, fmt.Errorf("hostdb: BeginTransaction at %s: %s", server, resp.Msg)
		}
		s.db.noteDLFMSuccess(server)
	}
	p.begun = true
	return p, nil
}

// dropPart closes and forgets a cached participant whose connection failed,
// so the next transaction re-dials through the server's current dialer —
// which after a failover points at the promoted standby.
func (s *Session) dropPart(server string) {
	if p := s.parts[server]; p != nil {
		p.client.Close()
		delete(s.parts, server)
	}
}

// abandonParts closes every participant connection. After a commit is
// interrupted before phase 2, the agent on the other end of each
// connection is pinned to the prepared transaction until its outcome
// arrives from resolution or a learner — reusing the connection would only
// collect "transaction still active" errors. Fresh dials replace them on
// the session's next transaction.
func (s *Session) abandonParts() {
	for server := range s.parts {
		s.dropPart(server)
	}
}

// Exec executes one SQL statement, intercepting DATALINK column activity.
func (s *Session) Exec(text string, params ...value.Value) (int64, error) {
	if s.dead {
		return 0, fmt.Errorf("%w: acknowledge with Rollback", ErrTxnRolledBack)
	}
	if s.global != nil {
		return 0, fmt.Errorf("hostdb: transaction %d is globally prepared; only CommitGlobal/AbortGlobal are valid", s.txn)
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return 0, err
	}
	if err := s.begin(); err != nil {
		return 0, err
	}
	sp := s.db.tracer.StartSpanInTrace(s.txn, 0, "host", "stmt").Attr("sql", truncateSQL(text))
	s.stmtSpan = sp.Ctx()
	if sp != nil {
		// Host-engine lock waits during this statement nest under it.
		s.conn.SetSpanCtx(sp.Ctx())
	}
	defer func() {
		s.stmtSpan = obs.SpanCtx{}
		if sp != nil {
			s.conn.SetSpanCtx(obs.SpanCtx{Trace: s.txn})
		}
		sp.End()
	}()
	switch st := stmt.(type) {
	case sql.Insert:
		return s.execInsert(st, params)
	case sql.Update:
		return s.execUpdate(st, params)
	case sql.Delete:
		return s.execDelete(st, params)
	default:
		return s.execHost(stmt, params, nil)
	}
}

// truncateSQL bounds the statement text recorded as a span attribute.
func truncateSQL(text string) string {
	const max = 80
	if len(text) > max {
		return text[:max] + "…"
	}
	return text
}

// mapEngineErr converts host-engine deadlock/timeout (which already rolled
// the engine transaction back) into a dead-session state: the DLFM side is
// aborted too, as the paper's host does.
func (s *Session) mapEngineErr(err error) error {
	if err == nil {
		return nil
	}
	if engine.IsRetryable(err) {
		// The engine already rolled the local transaction back (deadlock
		// victim / lock timeout); acknowledge it so the connection is
		// usable again, and abort the DLFM side.
		if s.conn.InTxn() {
			s.conn.Rollback()
		}
		s.abortParts()
		s.markDead()
		return fmt.Errorf("%w: %v", ErrTxnRolledBack, err)
	}
	return err
}

func (s *Session) markDead() {
	s.dead = true
	s.db.stats.Aborts.Add(1)
}

// dlfmFailure converts a DLFM error response mid-statement. Severe errors
// (the DLFM's local database rolled its sub-transaction back) force a full
// host rollback; benign ones surface as statement errors after the caller
// backs out the statement's prior operations. A "standby" refusal means the
// session reached a fenced standby — rolled back like a severe error; the
// retry re-dials and lands on whichever server is primary by then.
func (s *Session) dlfmFailure(server string, resp rpc.Response, callErr error, done []stmtOp) error {
	if callErr != nil {
		// Transport failure: the DLFM (or its connection) died.
		s.db.noteDLFMFailure(server, callErr)
		s.dropPart(server)
		s.rollbackInternal()
		return fmt.Errorf("%w: DLFM unreachable: %v", ErrTxnRolledBack, callErr)
	}
	switch resp.Code {
	case "deadlock", "timeout", "severe", "logfull", "standby":
		s.rollbackInternal()
		return fmt.Errorf("%w: DLFM %s: %s", ErrTxnRolledBack, resp.Code, resp.Msg)
	default:
		s.backoutStatement(done)
		return fmt.Errorf("%w: %s: %s", ErrStatement, resp.Code, resp.Msg)
	}
}

// backoutStatement undoes this statement's DLFM operations with in_backout
// requests, in reverse order (Section 3.2). A failure during backout is a
// severe condition: the whole transaction rolls back.
func (s *Session) backoutStatement(done []stmtOp) {
	for i := len(done) - 1; i >= 0; i-- {
		op := done[i]
		p := s.parts[op.server]
		if p == nil {
			continue
		}
		var resp rpc.Response
		var err error
		if op.isLink {
			resp, err = p.client.Call(rpc.LinkFileReq{Txn: s.txn, Name: op.name, InBackout: true})
		} else {
			resp, err = p.client.Call(rpc.UnlinkFileReq{Txn: s.txn, Name: op.name, RecID: op.recID, InBackout: true})
		}
		if err != nil || !resp.OK() {
			s.rollbackInternal()
			return
		}
		s.db.stats.StmtBackouts.Add(1)
	}
}

// linkFile drives one LinkFile at the right DLFM, creating the file group
// there first if this is the group's first file on that server. The URL's
// server name routes through the placement map when it names a cluster, so
// the whole statement (and the later 2PC fan-out, keyed by the physical
// member recorded in the stmtOp) is placement-aware; the route is held
// until the RPC returns, so a slot fence cannot cut over mid-call.
func (s *Session) linkFile(url string, col dlCol) (int64, stmtOp, error) {
	server, path, err := ParseURL(url)
	if err != nil {
		return 0, stmtOp{}, fmt.Errorf("%w: %v", ErrStatement, err)
	}
	phys, release, err := s.db.route(server, path)
	if err != nil {
		// A fence timeout fails the statement, not the transaction: the
		// application retries and routes against the post-move table.
		return 0, stmtOp{}, fmt.Errorf("%w: %v", ErrStatement, err)
	}
	defer release()
	p, err := s.part(phys)
	if err != nil {
		s.rollbackInternal()
		return 0, stmtOp{}, fmt.Errorf("%w: %v", ErrTxnRolledBack, err)
	}
	if err := s.ensureGroup(p, col); err != nil {
		return 0, stmtOp{}, err
	}
	rec := s.db.NextRecID()
	sp := s.db.tracer.StartSpan(s.stmtSpan, "host", "rpc:LinkFile").Attr("server", phys)
	resp, err := p.client.CallCtx(sp.Ctx(), rpc.LinkFileReq{Txn: s.txn, Name: path, RecID: rec, Grp: col.grp})
	sp.End()
	if err != nil || !resp.OK() {
		return 0, stmtOp{}, s.dlfmFailure(phys, resp, err, nil)
	}
	s.db.stats.Links.Add(1)
	return rec, stmtOp{server: phys, name: path, isLink: true, recID: rec}, nil
}

// unlinkFile drives one UnlinkFile, routing clustered names like linkFile.
func (s *Session) unlinkFile(url string, col dlCol) (stmtOp, error) {
	server, path, err := ParseURL(url)
	if err != nil {
		return stmtOp{}, fmt.Errorf("%w: %v", ErrStatement, err)
	}
	phys, release, err := s.db.route(server, path)
	if err != nil {
		return stmtOp{}, fmt.Errorf("%w: %v", ErrStatement, err)
	}
	defer release()
	p, err := s.part(phys)
	if err != nil {
		s.rollbackInternal()
		return stmtOp{}, fmt.Errorf("%w: %v", ErrTxnRolledBack, err)
	}
	rec := s.db.NextRecID()
	sp := s.db.tracer.StartSpan(s.stmtSpan, "host", "rpc:UnlinkFile").Attr("server", phys)
	resp, err := p.client.CallCtx(sp.Ctx(), rpc.UnlinkFileReq{Txn: s.txn, Name: path, RecID: rec, Grp: col.grp})
	sp.End()
	if err != nil || !resp.OK() {
		return stmtOp{}, s.dlfmFailure(phys, resp, err, nil)
	}
	s.db.stats.Unlinks.Add(1)
	return stmtOp{server: phys, name: path, isLink: false, recID: rec}, nil
}

// ensureGroup creates the column's file group at the participant's server
// on first use, transactionally on both sides.
func (s *Session) ensureGroup(p *participant, col dlCol) error {
	noted, err := groupNoted(s.conn, col.grp, p.server)
	if err != nil {
		return s.mapEngineErr(err)
	}
	if noted {
		return nil
	}
	resp, err := p.client.Call(rpc.CreateGroupReq{
		Txn: s.txn, Grp: col.grp, Recovery: col.recovery, FullControl: col.fullctl,
	})
	// "duplicate" means the group already exists at this member — slot
	// migration installs groups ahead of the dl_grpsrv note, so treat
	// creation as idempotent and just record the placement.
	if err != nil || (!resp.OK() && resp.Code != "duplicate") {
		return s.dlfmFailure(p.server, resp, err, nil)
	}
	if _, err := s.conn.ExecStmt(insGrpsrv, value.Int(col.grp), value.Str(p.server)); err != nil {
		// A concurrent session (or a move's noteGroup) may have recorded the
		// placement between our COUNT and the INSERT; the note is all we
		// needed, so the race loser carries on.
		if errors.Is(err, engine.ErrDuplicate) {
			return nil
		}
		return s.mapEngineErr(err)
	}
	return nil
}

// The datalink engine rewrites the parsed statement, never its text: hidden
// recovery-id columns are appended to a copy of the tree's slices (a parsed
// or shared statement is never modified) and the tree goes to the engine's
// ExecStmt with the caller's parameters untouched.

// execInsert intercepts INSERT into a table with DATALINK columns: each
// DATALINK value that names a file is linked in the same transaction, and
// the hidden recovery-id column is filled.
func (s *Session) execInsert(st sql.Insert, params []value.Value) (int64, error) {
	cols, err := s.db.datalinkCols(s.conn, st.Table)
	if err != nil {
		return 0, s.mapEngineErr(err)
	}
	if len(cols) == 0 {
		return s.execHost(st, params, nil)
	}
	if st.Cols == nil {
		return 0, fmt.Errorf("hostdb: INSERT into a DATALINK table must name its columns")
	}
	if len(st.Vals) != len(st.Cols) {
		return 0, fmt.Errorf("hostdb: INSERT names %d columns for %d values", len(st.Cols), len(st.Vals))
	}
	// Clipping the capacities makes the first append below copy.
	n := len(st.Cols)
	st.Cols, st.Vals = st.Cols[:n:n], st.Vals[:n:n]
	var done []stmtOp
	for i, colName := range st.Cols {
		col, isDL := dlColNamed(cols, colName)
		if !isDL {
			continue
		}
		v, err := evalConst(st.Vals[i], params)
		if err != nil {
			return 0, s.stmtFailed(done, err)
		}
		url, linked := linkTarget(v)
		if !linked {
			continue
		}
		rec, op, err := s.linkFile(url, col)
		if err != nil {
			return 0, s.stmtFailed(done, err)
		}
		done = append(done, op)
		st.Cols = append(st.Cols, recidCol(colName))
		st.Vals = append(st.Vals, sql.Literal{V: value.Int(rec)})
	}
	return s.execHost(st, params, done)
}

// execHost runs the statement on the host engine, after its DLFM
// operations in done. A plain failure backs those out and the transaction
// continues; a deadlock or timeout rolls the whole transaction back.
func (s *Session) execHost(st sql.Statement, params []value.Value, done []stmtOp) (int64, error) {
	n, err := s.conn.ExecStmt(st, params...)
	if err != nil {
		return n, s.stmtFailed(done, s.mapEngineErr(err))
	}
	return n, nil
}

// stmtFailed backs out the failed statement's DLFM operations, unless err
// already rolled the whole transaction back.
func (s *Session) stmtFailed(done []stmtOp, err error) error {
	if !errors.Is(err, ErrTxnRolledBack) {
		s.backoutStatement(done)
	}
	return err
}

// linkTarget returns the URL a DATALINK value links. NULL and the empty
// string link nothing; neither does a non-string, which the engine's type
// check then rejects.
func linkTarget(v value.Value) (url string, linked bool) {
	if v.Kind() != value.KindString {
		return "", false
	}
	return v.Text(), v.Text() != ""
}

// evalConst evaluates a literal-or-parameter expression.
func evalConst(e sql.Expr, params []value.Value) (value.Value, error) {
	switch v := e.(type) {
	case sql.Literal:
		return v.V, nil
	case sql.Param:
		if v.Idx >= len(params) {
			return value.Null, fmt.Errorf("hostdb: missing parameter %d", v.Idx+1)
		}
		return params[v.Idx], nil
	default:
		return value.Null, fmt.Errorf("hostdb: DATALINK expressions must be literals or parameters")
	}
}

// lockLinked X-locks the rows an UPDATE or DELETE is about to change and
// returns their current values of cols: a SELECT … FOR UPDATE over the
// statement's own WHERE and parameters.
func (s *Session) lockLinked(table string, cols []dlCol, where []sql.Pred, params []value.Value) ([]value.Row, error) {
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	rows, err := s.conn.QueryStmt(sql.Select{
		Table: table, Cols: names, Where: where, Limit: -1, LimitParam: -1, ForUpdate: true,
	}, params...)
	return rows, s.mapEngineErr(err)
}

// unlinkRows unlinks every file rows reference through cols. A statement-
// level failure backs out the unlinks already made.
func (s *Session) unlinkRows(rows []value.Row, cols []dlCol) ([]stmtOp, error) {
	var done []stmtOp
	for _, row := range rows {
		for i, col := range cols {
			url, linked := linkTarget(row[i])
			if !linked {
				continue
			}
			op, err := s.unlinkFile(url, col)
			if err != nil {
				return nil, s.stmtFailed(done, err)
			}
			done = append(done, op)
		}
	}
	return done, nil
}

// execUpdate intercepts UPDATE statements that assign DATALINK columns:
// for each affected row the old file is unlinked and the new one linked,
// all in the same transaction ("an important customer requirement",
// Section 3.2).
func (s *Session) execUpdate(st sql.Update, params []value.Value) (int64, error) {
	cols, err := s.db.datalinkCols(s.conn, st.Table)
	if err != nil {
		return 0, s.mapEngineErr(err)
	}
	var touched []dlCol
	var newVals []value.Value
	for _, a := range st.Sets {
		if col, isDL := dlColNamed(cols, a.Col); isDL {
			v, err := evalConst(a.Val, params)
			if err != nil {
				return 0, err
			}
			touched = append(touched, col)
			newVals = append(newVals, v)
		}
	}
	if len(touched) == 0 {
		return s.execHost(st, params, nil)
	}

	rows, err := s.lockLinked(st.Table, touched, st.Where, params)
	if err != nil {
		return 0, err
	}
	done, err := s.unlinkRows(rows, touched)
	if err != nil {
		return 0, err
	}
	// Link each new value once and set its hidden recid beside it. Several
	// matched rows sharing one new URL would violate the one-link-per-file
	// rule; the extra rows reuse the link.
	st.Sets = st.Sets[:len(st.Sets):len(st.Sets)]
	for i, col := range touched {
		rec := value.Null
		if url, linked := linkTarget(newVals[i]); linked && len(rows) > 0 {
			id, op, err := s.linkFile(url, col)
			if err != nil {
				return 0, s.stmtFailed(done, err)
			}
			done = append(done, op)
			rec = value.Int(id)
		}
		st.Sets = append(st.Sets, sql.Assign{Col: recidCol(col.name), Val: sql.Literal{V: rec}})
	}
	return s.execHost(st, params, done)
}

// execDelete intercepts DELETE from a DATALINK table: each referenced file
// is unlinked in the same transaction.
func (s *Session) execDelete(st sql.Delete, params []value.Value) (int64, error) {
	cols, err := s.db.datalinkCols(s.conn, st.Table)
	if err != nil {
		return 0, s.mapEngineErr(err)
	}
	if len(cols) == 0 {
		return s.execHost(st, params, nil)
	}
	rows, err := s.lockLinked(st.Table, cols, st.Where, params)
	if err != nil {
		return 0, err
	}
	done, err := s.unlinkRows(rows, cols)
	if err != nil {
		return 0, err
	}
	return s.execHost(st, params, done)
}

// Query runs a SELECT. DATALINK values in full-access-control columns come
// back with an access token appended (url#token), ready for the DLFF.
func (s *Session) Query(text string, params ...value.Value) ([]value.Row, error) {
	if s.dead {
		return nil, fmt.Errorf("%w: acknowledge with Rollback", ErrTxnRolledBack)
	}
	stmt, err := sql.Parse(text)
	if err != nil {
		return nil, err
	}
	sel, isSel := stmt.(sql.Select)
	if !isSel {
		return nil, fmt.Errorf("hostdb: Query requires a SELECT")
	}
	if err := s.begin(); err != nil {
		return nil, err
	}
	rows, err := s.conn.QueryStmt(sel, params...)
	if err != nil {
		return nil, s.mapEngineErr(err)
	}
	cols, err := s.db.datalinkCols(s.conn, sel.Table)
	if err != nil || len(cols) == 0 {
		return rows, s.mapEngineErr(err)
	}

	// Map output columns to DATALINK registry entries.
	fullctl := make(map[string]bool, len(cols))
	hidden := make(map[string]bool, len(cols))
	for _, c := range cols {
		if c.fullctl {
			fullctl[c.name] = true
		}
		hidden[recidCol(c.name)] = true
	}
	var outNames []string
	if sel.Star {
		meta, err := s.db.eng.Catalog().Table(sel.Table)
		if err != nil {
			return rows, nil
		}
		for _, c := range meta.Schema.Cols {
			outNames = append(outNames, c.Name)
		}
	} else if sel.Agg == sql.AggNone {
		outNames = sel.Cols
	}
	if outNames == nil {
		return rows, nil
	}

	// Token-append and hidden-column stripping.
	keep := make([]int, 0, len(outNames))
	for i, name := range outNames {
		if !(sel.Star && hidden[name]) {
			keep = append(keep, i)
		}
	}
	out := make([]value.Row, len(rows))
	for r, row := range rows {
		proj := make(value.Row, 0, len(keep))
		for _, i := range keep {
			v := row[i]
			if url, linked := linkTarget(v); linked && fullctl[outNames[i]] {
				if _, path, err := ParseURL(url); err == nil {
					if tok := s.db.MintToken(path); tok != "" {
						v = value.Str(url + "#" + tok)
					}
				}
			}
			proj = append(proj, v)
		}
		out[r] = proj
	}
	return out, nil
}

// Enlist joins server to the current transaction without performing any
// file operation there. The participant casts a read-only vote at prepare
// unless later statements write through it; benchmarks and tests use
// Enlist to shape multi-participant transactions.
func (s *Session) Enlist(server string) error {
	if s.dead {
		return fmt.Errorf("%w: acknowledge with Rollback", ErrTxnRolledBack)
	}
	if err := s.begin(); err != nil {
		return err
	}
	_, err := s.part(server)
	return err
}

// commitLocal commits the host engine transaction (a session that only
// read may have no engine transaction at all).
func (s *Session) commitLocal() error {
	if !s.conn.InTxn() {
		return nil
	}
	return s.conn.Commit()
}

// Rollback aborts the transaction on every DLFM and locally.
func (s *Session) Rollback() error {
	if s.txn == 0 {
		return engine.ErrNoTxn
	}
	if s.global != nil {
		return fmt.Errorf("hostdb: transaction %d is globally prepared; use CommitGlobal/AbortGlobal", s.txn)
	}
	if !s.dead {
		s.rollbackInternal()
	}
	s.finishTxn()
	return nil
}

// rollbackInternal aborts DLFM participants and the local engine txn, then
// marks the session dead until the application acknowledges.
func (s *Session) rollbackInternal() {
	s.db.tracer.Emit(s.txn, "host", "rollback", "")
	s.abortParts()
	s.rollbackBranch()
	s.markDead()
}

// abortParts aborts every begun participant.
func (s *Session) abortParts() {
	outs := s.db.fanoutParts(s.begunParts(), false, func(p *participant) (rpc.Response, error) {
		return p.client.Call(rpc.AbortReq{Txn: s.txn})
	})
	for i := range outs {
		if outs[i].err != nil {
			// The abort is lost with the server; presumed abort covers
			// it at resolution time.
			s.db.noteDLFMFailure(outs[i].p.server, outs[i].err)
			s.dropPart(outs[i].p.server)
		}
	}
}

// finishTxn resets per-transaction state.
func (s *Session) finishTxn() {
	if s.txn != 0 {
		s.db.unmarkActive(s.txn)
	}
	s.txn = 0
	s.dead = false
	s.global = nil
	s.stmtSpan = obs.SpanCtx{}
	s.conn.SetSpanCtx(obs.SpanCtx{})
	for _, p := range s.parts {
		p.begun = false
	}
}
