package core

import (
	"errors"
	"time"

	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/fsim"
	"repro/internal/rpc"
	"repro/internal/value"
)

// Fault points at each daemon's unit of work. The paper's daemons are
// separate processes respawned by the main daemon; goroutines have no such
// supervisor, so Crash armings are converted to an error by fireGuarded —
// the daemon loses that iteration of work, not the whole process.
var (
	fpChownWork    = fault.P("daemon.chown.work")
	fpUpcallWork   = fault.P("daemon.upcall.work")
	fpCopyWork     = fault.P("daemon.copy.work")
	fpRetrieveWork = fault.P("daemon.retrieve.work")
	fpGCWork       = fault.P("daemon.gc.work")
	fpDelGroupWork = fault.P("daemon.delgroup.work")
	fpLearnerWork  = fault.P("daemon.learner.work")
)

// fireGuarded fires p, demoting an injected crash to an ordinary error.
func fireGuarded(p *fault.Point, detail string) (err error) {
	defer func() {
		if r := recover(); r != nil {
			cp, isCrash := fault.AsCrash(r)
			if !isCrash {
				panic(r)
			}
			err = errors.New(cp.String())
		}
	}()
	return p.FireDetail(detail)
}

// The DLFM process model (Section 3.5, Figure 5): besides the per-
// connection child agents, the main daemon runs six service daemons. Here
// each daemon is a goroutine owning its own local-database connection and
// discovering its work through SQL tables — not through in-memory queues —
// so that, like the paper's processes, a daemon restarted after a crash
// resumes from the durable state.

func (s *Server) startDaemons() {
	s.chown = newChownDaemon(s)
	s.upcall = newUpcallDaemon(s)
	s.copyd = newCopyDaemon(s)
	s.retrieve = newRetrieveDaemon(s)
	s.gc = newGCDaemon(s)
	s.delGroup = newDeleteGroupDaemon(s)
	if s.cfg.OutcomeLearner != nil {
		s.learner = newLearnerDaemon(s)
	}
}

func (s *Server) stopDaemons() {
	// The six core daemons are created together; on a standby that never
	// promoted, none were (the typed-nil pointers below would defeat the
	// interface nil check).
	if s.delGroup == nil {
		return
	}
	daemons := []interface{ stop() }{s.delGroup, s.gc, s.retrieve, s.copyd, s.upcall, s.chown}
	if s.learner != nil {
		daemons = append([]interface{ stop() }{s.learner}, daemons...)
		s.learner = nil
	}
	for _, stop := range daemons {
		if stop != nil {
			stop.stop()
		}
	}
}

// --- Chown daemon -------------------------------------------------------------

// The Chown daemon is the only process with super-user privilege; child
// agents send it authenticated requests to take over or release files
// (Section 3.5). The authentication is modelled with a capability token
// minted by the server at startup.
type chownOp struct {
	kind  int // 0 takeover, 1 release, 2 read-only
	name  string
	owner string
	auth  uint64
	reply chan error
}

type chownDaemon struct {
	srv   *Server
	req   chan chownOp
	quit  chan struct{}
	done  chan struct{}
	token uint64
}

func newChownDaemon(s *Server) *chownDaemon {
	d := &chownDaemon{
		srv:   s,
		req:   make(chan chownOp),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
		token: uint64(time.Now().UnixNano()) | 1,
	}
	go d.run()
	return d
}

func (d *chownDaemon) run() {
	defer close(d.done)
	for {
		select {
		case <-d.quit:
			return
		case op := <-d.req:
			op.reply <- d.apply(op)
		}
	}
}

func (d *chownDaemon) apply(op chownOp) error {
	if err := fireGuarded(fpChownWork, op.name); err != nil {
		return err
	}
	if op.auth != d.token {
		return errors.New("core: chown daemon: unauthenticated request")
	}
	fs := d.srv.fs
	var err error
	switch op.kind {
	case 0: // takeover: the database owns the file, read-only
		if err = fs.Chown(op.name, d.srv.cfg.AdminUser); err == nil {
			err = fs.Chmod(op.name, true)
		}
	case 1: // release: restore original owner and writability
		if err = fs.Chown(op.name, op.owner); err == nil {
			err = fs.Chmod(op.name, false)
		}
	case 2: // read-only only (recovery groups under partial control)
		err = fs.Chmod(op.name, true)
	}
	if err == nil {
		d.srv.stats.ChownOps.Add(1)
	}
	return err
}

func (d *chownDaemon) call(op chownOp) error {
	op.auth = d.token
	op.reply = make(chan error, 1)
	select {
	case d.req <- op:
		return <-op.reply
	case <-d.quit:
		return errors.New("core: chown daemon stopped")
	}
}

func (d *chownDaemon) takeover(name string) error { return d.call(chownOp{kind: 0, name: name}) }
func (d *chownDaemon) release(name, owner string) error {
	return d.call(chownOp{kind: 1, name: name, owner: owner})
}
func (d *chownDaemon) makeReadOnly(name string) error { return d.call(chownOp{kind: 2, name: name}) }

func (d *chownDaemon) stop() {
	close(d.quit)
	<-d.done
}

// --- Upcall daemon ------------------------------------------------------------

// The Upcall daemon answers the DLFF's "is this file linked?" queries so
// the filter can enforce referential integrity (Section 3.5).
type upcallReq struct {
	name  string
	reply chan upcallResp
}

type upcallResp struct {
	st  fsim.LinkStatus
	err error
}

type upcallDaemon struct {
	srv  *Server
	req  chan upcallReq
	quit chan struct{}
	done chan struct{}
}

func newUpcallDaemon(s *Server) *upcallDaemon {
	d := &upcallDaemon{srv: s, req: make(chan upcallReq), quit: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *upcallDaemon) run() {
	defer close(d.done)
	conn := d.srv.db.Connect()
	for {
		select {
		case <-d.quit:
			return
		case r := <-d.req:
			r.reply <- d.answer(conn, r.name)
		}
	}
}

func (d *upcallDaemon) answer(conn *engine.Conn, name string) upcallResp {
	if err := fireGuarded(fpUpcallWork, name); err != nil {
		return upcallResp{err: err}
	}
	s := d.srv
	s.stats.Upcalls.Add(1)
	rows, err := s.stmts.get(sqlIsLinked).Query(conn, value.Str(name))
	if err != nil {
		if conn.InTxn() {
			conn.Rollback()
		}
		return upcallResp{err: err}
	}
	if err := conn.Commit(); err != nil {
		return upcallResp{err: err}
	}
	if len(rows) == 0 {
		return upcallResp{}
	}
	st := fsim.LinkStatus{Linked: true}
	if g, err := s.groupInfo(conn, rows[0][0].Int64()); err == nil {
		conn.Commit()
		if g != nil {
			st.FullControl = g.fullctl
		}
	} else if conn.InTxn() {
		conn.Rollback()
	}
	return upcallResp{st: st}
}

// ErrUpcallTimeout is returned when the Upcall daemon does not answer an
// IsLinked query within Config.UpcallTimeout. The DLFF treats it like any
// upcall failure: the file-system operation is denied, never allowed.
var ErrUpcallTimeout = errors.New("core: upcall timed out")

// IsLinked implements fsim.Upcaller for the DLFF. The call is bounded by
// Config.UpcallTimeout so a wedged daemon cannot hang file-system requests.
func (d *upcallDaemon) IsLinked(name string) (fsim.LinkStatus, error) {
	to := d.srv.cfg.UpcallTimeout
	if to <= 0 {
		to = 5 * time.Second
	}
	timer := time.NewTimer(to)
	defer timer.Stop()
	r := upcallReq{name: name, reply: make(chan upcallResp, 1)}
	select {
	case d.req <- r:
	case <-d.quit:
		return fsim.LinkStatus{}, errors.New("core: upcall daemon stopped")
	case <-timer.C:
		return fsim.LinkStatus{}, ErrUpcallTimeout
	}
	select {
	case resp := <-r.reply:
		return resp.st, resp.err
	case <-timer.C:
		return fsim.LinkStatus{}, ErrUpcallTimeout
	}
}

func (d *upcallDaemon) stop() {
	close(d.quit)
	<-d.done
}

// --- Copy daemon ----------------------------------------------------------------

// The Copy daemon asynchronously archives newly linked files after their
// transaction commits: the child agent queued entries in the Archive table,
// phase-2 commit made them 'R'eady, and the daemon drains them to the
// archive server, deleting each entry as soon as it is copied (Section 3.4).
type copyDaemon struct {
	srv    *Server
	kickCh chan struct{}
	quit   chan struct{}
	done   chan struct{}
}

func newCopyDaemon(s *Server) *copyDaemon {
	d := &copyDaemon{srv: s, kickCh: make(chan struct{}, 1), quit: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *copyDaemon) kick() {
	select {
	case d.kickCh <- struct{}{}:
	default:
	}
}

func (d *copyDaemon) run() {
	defer close(d.done)
	conn := d.srv.db.Connect()
	ticker := time.NewTicker(d.srv.cfg.CopyInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-d.kickCh:
		case <-ticker.C:
		}
		for d.srv.copyBatch(conn) > 0 {
		}
	}
}

// copyBatch archives up to one batch of ready entries, returning how many
// files it copied. It is also called synchronously by WaitArchive's
// priority path.
func (s *Server) copyBatch(conn *engine.Conn) int {
	if err := fireGuarded(fpCopyWork, ""); err != nil {
		return 0
	}
	rows, err := s.stmts.get(sqlPendingCopies).Query(conn, value.Int(32))
	if err != nil {
		if conn.InTxn() {
			conn.Rollback()
		}
		return 0
	}
	if len(rows) == 0 {
		conn.Commit()
		return 0
	}
	copied := 0
	for _, r := range rows {
		name, recID, txn := r[0].Text(), r[1].Int64(), r[2].Int64()
		// The archive entry remembers the linking transaction, so the
		// deferred copy work is attributable to the trace that caused it.
		sp := s.tracer.StartSpanInTrace(txn, 0, "daemon", "daemon:copy").Attr("file", name)
		content, err := s.fs.Read(name)
		if err != nil {
			// The file vanished (should not happen for linked files);
			// drop the work item rather than wedging the daemon.
			content = nil
		}
		if err := s.arch.Store(name, recID, content); err != nil {
			sp.End()
			continue
		}
		if _, err := s.stmts.get(sqlDeleteArchive).Exec(conn, value.Str(name), value.Int(recID)); err != nil {
			sp.End()
			if conn.InTxn() {
				conn.Rollback()
			}
			return copied
		}
		copied++
		s.stats.ArchiveCopies.Add(1)
		sp.End()
	}
	if err := conn.Commit(); err != nil {
		return 0
	}
	return copied
}

func (d *copyDaemon) stop() {
	close(d.quit)
	<-d.done
}

// --- Retrieve daemon --------------------------------------------------------------

// The Retrieve daemon restores file content from the archive server when a
// host restore left linked entries whose files are missing (Section 3.5).
type retrieveReq struct {
	name     string
	recID    int64
	owner    string
	readOnly bool
	reply    chan error
}

type retrieveDaemon struct {
	srv  *Server
	req  chan retrieveReq
	quit chan struct{}
	done chan struct{}
}

func newRetrieveDaemon(s *Server) *retrieveDaemon {
	d := &retrieveDaemon{srv: s, req: make(chan retrieveReq), quit: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *retrieveDaemon) run() {
	defer close(d.done)
	for {
		select {
		case <-d.quit:
			return
		case r := <-d.req:
			if err := fireGuarded(fpRetrieveWork, r.name); err != nil {
				r.reply <- err
				continue
			}
			content, err := d.srv.arch.Retrieve(r.name, r.recID)
			if err == nil {
				err = d.srv.fs.Restore(r.name, r.owner, content, r.readOnly)
				if err == nil {
					d.srv.stats.Retrievals.Add(1)
				}
			}
			r.reply <- err
		}
	}
}

func (d *retrieveDaemon) restore(name string, recID int64, owner string, readOnly bool) error {
	r := retrieveReq{name: name, recID: recID, owner: owner, readOnly: readOnly, reply: make(chan error, 1)}
	select {
	case d.req <- r:
		return <-r.reply
	case <-d.quit:
		return errors.New("core: retrieve daemon stopped")
	}
}

func (d *retrieveDaemon) stop() {
	close(d.quit)
	<-d.done
}

// --- Garbage Collector daemon ---------------------------------------------------

// The Garbage Collector performs the two cleanups of Section 3.5 — backup
// retention (keep the last N backups; remove older unlinked entries and
// their archive copies) and expired deleted groups — plus the Section 4
// statistics guard.
type gcDaemon struct {
	srv  *Server
	quit chan struct{}
	done chan struct{}
}

func newGCDaemon(s *Server) *gcDaemon {
	d := &gcDaemon{srv: s, quit: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *gcDaemon) run() {
	defer close(d.done)
	conn := d.srv.db.Connect()
	ticker := time.NewTicker(d.srv.cfg.GCInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-ticker.C:
			d.srv.CheckStatsGuard()
			d.srv.gcOnce(conn)
		}
	}
}

func (d *gcDaemon) stop() {
	close(d.quit)
	<-d.done
}

// RunGC triggers one synchronous garbage-collection cycle (tests and the
// benchmark harness use it instead of waiting for the daemon's tick).
func (s *Server) RunGC() error {
	conn := s.db.Connect()
	return s.gcOnce(conn)
}

func (s *Server) gcOnce(conn *engine.Conn) error {
	if err := fireGuarded(fpGCWork, ""); err != nil {
		return err
	}
	if err := s.gcBackups(conn); err != nil {
		return err
	}
	return s.gcGroups(conn)
}

// gcBackups enforces the keep-last-N backups policy: "the last N+1 onwards
// backup entries and corresponding unlink file entries from the File table
// are removed by the garbage collector daemon. It also removes the copies
// of those files from the archive server."
func (s *Server) gcBackups(conn *engine.Conn) error {
	abort := func(err error) error {
		if conn.InTxn() {
			conn.Rollback()
		}
		return err
	}
	backups, err := s.stmts.get(sqlListBackups).Query(conn)
	if err != nil {
		return abort(err)
	}
	if len(backups) <= s.cfg.KeepBackups {
		return conn.Commit()
	}
	dropped := backups[:len(backups)-s.cfg.KeepBackups]
	cutoff := backups[len(backups)-s.cfg.KeepBackups][1].Int64()

	// Unlinked entries are still needed by an indoubt transaction's
	// potential compensation; skip those.
	indoubtRows, err := s.stmts.get(sqlIndoubtTxns).Query(conn)
	if err != nil {
		return abort(err)
	}
	indoubt := make(map[int64]bool, len(indoubtRows))
	for _, r := range indoubtRows {
		indoubt[r[0].Int64()] = true
	}

	for _, b := range dropped {
		if _, err := s.stmts.get(sqlDeleteBackup).Exec(conn, value.Int(b[0].Int64())); err != nil {
			return abort(err)
		}
		s.stats.BackupsGCed.Add(1)
	}
	stale, err := s.stmts.get(sqlStaleUnlinked).Query(conn, value.Int(cutoff))
	if err != nil {
		return abort(err)
	}
	type victim struct {
		name         string
		recID, chkfl int64
	}
	var victims []victim
	for _, r := range stale {
		if indoubt[r[3].Int64()] {
			continue
		}
		victims = append(victims, victim{name: r[0].Text(), recID: r[1].Int64(), chkfl: r[2].Int64()})
	}
	for _, v := range victims {
		if _, err := s.stmts.get(sqlDropFileByNameChk).Exec(conn, value.Str(v.name), value.Int(v.chkfl)); err != nil {
			return abort(err)
		}
	}
	if err := conn.Commit(); err != nil {
		return err
	}
	for _, v := range victims {
		s.arch.Delete(v.name, v.recID)
		s.stats.FilesGCed.Add(1)
	}
	return nil
}

// gcGroups removes deleted groups whose lifetime expired, with their
// remaining unlinked entries and archive copies.
func (s *Server) gcGroups(conn *engine.Conn) error {
	abort := func(err error) error {
		if conn.InTxn() {
			conn.Rollback()
		}
		return err
	}
	now := s.now()
	groups, err := s.stmts.get(sqlExpiredGroups).Query(conn)
	if err != nil {
		return abort(err)
	}
	if err := conn.Commit(); err != nil {
		return err
	}
	for _, g := range groups {
		grpID, expiry := g[0].Int64(), g[1].Int64()
		if expiry > now {
			continue
		}
		entries, err := s.stmts.get(sqlUnlinkedOfGroup).Query(conn, value.Int(grpID))
		if err != nil {
			return abort(err)
		}
		for _, e := range entries {
			if _, err := s.stmts.get(sqlDropFileByNameChk).Exec(conn, value.Str(e[0].Text()), value.Int(e[2].Int64())); err != nil {
				return abort(err)
			}
		}
		if _, err := s.stmts.get(sqlDeleteGroupRow).Exec(conn, value.Int(grpID)); err != nil {
			return abort(err)
		}
		if err := conn.Commit(); err != nil {
			return err
		}
		for _, e := range entries {
			s.arch.Delete(e[0].Text(), e[1].Int64())
			s.stats.FilesGCed.Add(1)
		}
	}
	return nil
}

// --- Delete Group daemon ----------------------------------------------------------

// The Delete Group daemon asynchronously unlinks every file of the groups a
// committed DROP TABLE transaction deleted. Commit processing only notifies
// it; on restart it resumes from the committed entries still in the
// Transaction table (Section 3.5).
type deleteGroupDaemon struct {
	srv  *Server
	wake chan int64
	quit chan struct{}
	done chan struct{}
}

func newDeleteGroupDaemon(s *Server) *deleteGroupDaemon {
	d := &deleteGroupDaemon{
		srv:  s,
		wake: make(chan int64, 64),
		quit: make(chan struct{}),
		done: make(chan struct{}),
	}
	go d.run()
	return d
}

func (d *deleteGroupDaemon) notify(txn int64) {
	select {
	case d.wake <- txn:
	default: // the periodic rescan will find it
	}
}

func (d *deleteGroupDaemon) run() {
	defer close(d.done)
	if d.srv.cfg.ManualDeleteGroup {
		<-d.quit
		return
	}
	conn := d.srv.db.Connect()
	ticker := time.NewTicker(d.srv.cfg.GCInterval)
	defer ticker.Stop()

	// Restart resume: pick up committed drop-table transactions whose
	// groups were not fully processed before the crash.
	d.rescan(conn)
	for {
		select {
		case <-d.quit:
			return
		case txn := <-d.wake:
			if err := d.srv.runDeleteGroup(conn, txn, d.srv.cfg.BatchCommitN); err != nil {
				d.notify(txn) // retry later
			}
		case <-ticker.C:
			d.rescan(conn)
		}
	}
}

func (d *deleteGroupDaemon) rescan(conn *engine.Conn) {
	rows, err := d.srv.stmts.get(sqlCommittedTxn).Query(conn)
	if err != nil {
		if conn.InTxn() {
			conn.Rollback()
		}
		return
	}
	conn.Commit()
	for _, r := range rows {
		_ = d.srv.runDeleteGroup(conn, r[0].Int64(), d.srv.cfg.BatchCommitN)
	}
}

func (d *deleteGroupDaemon) stop() {
	close(d.quit)
	<-d.done
}

// RunDeleteGroup synchronously processes one committed drop-table
// transaction with the given local-commit batch size. batchN <= 0 runs the
// whole group in one local transaction — the configuration that hits the
// log-full error the Section 4 lesson is about ("unlinking them in single
// local DB2 transaction can cause the DB2 log full error condition").
// Tests and the E8 benchmark call it directly.
func (s *Server) RunDeleteGroup(txn int64, batchN int) error {
	conn := s.db.Connect()
	return s.runDeleteGroup(conn, txn, batchN)
}

func (s *Server) runDeleteGroup(conn *engine.Conn, txn int64, batchN int) error {
	// The daemon works on behalf of the committed drop-table transaction;
	// its span joins that trace as a late root-less child.
	sp := s.tracer.StartSpanInTrace(txn, 0, "daemon", "daemon:delgroup")
	defer sp.End()
	abort := func(err error) error {
		if conn.InTxn() {
			conn.Rollback()
		}
		if errors.Is(err, engine.ErrLogFull) {
			s.stats.DaemonLogFulls.Add(1)
			s.tracer.Emit(txn, "daemon", "delete_group_log_full", "")
		}
		return err
	}
	if err := fireGuarded(fpDelGroupWork, ""); err != nil {
		return abort(err)
	}
	groups, err := s.stmts.get(sqlGroupsOfTxn).Query(conn, value.Int(txn))
	if err != nil {
		return abort(err)
	}
	if err := conn.Commit(); err != nil {
		return err
	}
	limit := int64(batchN)
	if limit <= 0 {
		limit = 1 << 30 // unbatched: take everything in one transaction
	}
	for _, g := range groups {
		grpID := g[0].Int64()
		for {
			files, err := s.stmts.get(sqlLinkedFilesOfGrp).Query(conn, value.Int(grpID), value.Int(limit))
			if err != nil {
				return abort(err)
			}
			if len(files) == 0 {
				conn.Commit()
				break
			}
			type rel struct{ name, owner string }
			var releases []rel
			for _, f := range files {
				name, recID, owner := f[0].Text(), f[1].Int64(), f[2].Text()
				// The link recovery id doubles as the unlink chkflag: it
				// is globally unique and never reused by the host.
				if _, err := s.stmts.get(sqlUnlinkKeep).Exec(conn,
					value.Int(recID), value.Int(txn), value.Int(s.now()), value.Str(name)); err != nil {
					return abort(err)
				}
				releases = append(releases, rel{name, owner})
			}
			// One local commit per batch — the paper's fix for log-full
			// on huge groups.
			if err := conn.Commit(); err != nil {
				return abort(err)
			}
			if batchN > 0 {
				s.stats.BatchCommits.Add(1)
			}
			for _, r := range releases {
				s.chown.release(r.name, r.owner)
			}
			if int64(len(files)) < limit {
				break
			}
		}
		if _, err := s.stmts.get(sqlGroupTombstone).Exec(conn,
			value.Int(s.now()+int64(s.cfg.GroupLifespan)), value.Int(grpID)); err != nil {
			return abort(err)
		}
		if err := conn.Commit(); err != nil {
			return abort(err)
		}
		s.stats.GroupsDeleted.Add(1)
		s.tracer.Emitf(txn, "daemon", "group_deleted", "group %d", grpID)
	}
	// A one-phase outcome ('O') stays for the host to forget.
	if _, err := s.stmts.get(sqlGroupsDone).Exec(conn, value.Int(txn)); err != nil {
		return abort(err)
	}
	return conn.Commit()
}

// --- Outcome-learner daemon ----------------------------------------------------

// The outcome learner is the participant side of non-blocking commit: when
// the commit decision is replicated across Paxos acceptors, a prepared
// transaction whose coordinator went quiet does not have to wait for host
// failover — this daemon asks the acceptors for the outcome and applies it
// through the normal phase-2 paths, releasing the locks the paper's 2PC
// would hold until resolution. Prepared entries younger than LearnGrace are
// left alone so a live coordinator's own phase 2 wins the race.
type learnerDaemon struct {
	srv  *Server
	quit chan struct{}
	done chan struct{}
}

func newLearnerDaemon(s *Server) *learnerDaemon {
	d := &learnerDaemon{srv: s, quit: make(chan struct{}), done: make(chan struct{})}
	go d.run()
	return d
}

func (d *learnerDaemon) run() {
	defer close(d.done)
	conn := d.srv.db.Connect()
	interval := d.srv.cfg.LearnInterval
	if interval <= 0 {
		interval = 25 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-d.quit:
			return
		case <-ticker.C:
			d.srv.learnOnce(conn) //nolint:errcheck
		}
	}
}

func (d *learnerDaemon) stop() {
	close(d.quit)
	<-d.done
}

// LearnOutcomesOnce runs one synchronous learner cycle with no grace
// period (tests use it instead of waiting for the daemon's tick).
func (s *Server) LearnOutcomesOnce() error {
	if s.cfg.OutcomeLearner == nil {
		return errors.New("core: no outcome learner configured")
	}
	conn := s.db.Connect()
	return s.learnWithGrace(conn, 0)
}

func (s *Server) learnOnce(conn *engine.Conn) error {
	grace := s.cfg.LearnGrace
	if grace <= 0 {
		grace = 200 * time.Millisecond
	}
	return s.learnWithGrace(conn, grace)
}

func (s *Server) learnWithGrace(conn *engine.Conn, grace time.Duration) error {
	if err := fireGuarded(fpLearnerWork, ""); err != nil {
		return err
	}
	rows, err := s.stmts.get(sqlIndoubtTxnsTs).Query(conn)
	if err != nil {
		if conn.InTxn() {
			conn.Rollback()
		}
		return err
	}
	if err := conn.Commit(); err != nil {
		return err
	}
	cutoff := s.now() - grace.Nanoseconds()
	for _, r := range rows {
		txn, ts := r[0].Int64(), r[1].Int64()
		if ts > cutoff {
			continue
		}
		// Outcomes are paxoscommit.OutcomeCommit/OutcomeAbort; the strings
		// are matched here to keep core free of a paxoscommit dependency.
		out, err := s.cfg.OutcomeLearner(txn)
		if err != nil {
			continue // acceptors unreachable; retry next tick
		}
		var resp rpc.Response
		switch out {
		case "commit":
			resp = s.phase2Commit(conn, txn)
		case "abort":
			resp = s.phase2Abort(conn, txn, false)
		default:
			continue
		}
		if resp.OK() {
			s.stats.SelfResolved.Add(1)
			s.tracer.Emit(txn, "2pc", "self_resolved", out)
		}
	}
	return nil
}
