package core

import (
	"fmt"
	"sync"

	"repro/internal/engine"
)

// The DLFM "packages": every SQL statement the DLFM executes, prepared and
// bound once at startup (after the statistics are crafted) and re-bound by
// the stats guard when the catalog statistics change. Keeping the complete
// SQL surface in one place is what the paper means by DLFM being "a
// sophisticated SQL application".
const (
	// Link / unlink (Section 3.2).
	sqlInsertFile = `INSERT INTO dlfm_file (name, grpid, recid, lnk_txn, unlnk_txn, unlnk_time, state, chkflag, del_txn, owner)
		VALUES (?, ?, ?, ?, 0, 0, 'L', 0, 0, ?)`
	sqlFindLinked      = `SELECT grpid, recid, owner, lnk_txn FROM dlfm_file WHERE name = ? AND state = 'L' AND chkflag = 0`
	sqlUnlinkKeep      = `UPDATE dlfm_file SET state = 'U', chkflag = ?, unlnk_txn = ?, unlnk_time = ? WHERE name = ? AND state = 'L' AND chkflag = 0`
	sqlUnlinkMarkDel   = `UPDATE dlfm_file SET state = 'U', chkflag = ?, unlnk_txn = ?, unlnk_time = ?, del_txn = ? WHERE name = ? AND state = 'L' AND chkflag = 0`
	sqlBackoutLink     = `DELETE FROM dlfm_file WHERE name = ? AND lnk_txn = ? AND state = 'L'`
	sqlBackoutLinkArch = `DELETE FROM dlfm_archive WHERE name = ? AND txnid = ? AND state = 'W'`
	// Unlink backout identifies the exact operation to undo by its
	// recovery id (stored as the entry's chkflag): one statement's unlink,
	// not every unlink the transaction performed on that name.
	sqlBackoutUnlink = `UPDATE dlfm_file SET state = 'L', chkflag = 0, unlnk_txn = 0, unlnk_time = 0, del_txn = 0 WHERE name = ? AND unlnk_txn = ? AND chkflag = ? AND state = 'U'`
	sqlInsertArchive = `INSERT INTO dlfm_archive (name, recid, grpid, txnid, state, prio) VALUES (?, ?, ?, ?, 'W', 0)`
	sqlGroupLookup   = `SELECT recovery, fullctl, state FROM dlfm_group WHERE grpid = ?`

	// Groups (Sections 3, 3.5).
	sqlInsertGroup       = `INSERT INTO dlfm_group (grpid, recovery, fullctl, state, crt_txn, del_txn, expiry) VALUES (?, ?, ?, 'A', ?, 0, 0)`
	sqlMarkGroupDeleted  = `UPDATE dlfm_group SET state = 'D', del_txn = ? WHERE grpid = ? AND state = 'A'`
	sqlGroupsOfTxn       = `SELECT grpid FROM dlfm_group WHERE del_txn = ? AND state = 'D'`
	sqlRestoreGroups     = `UPDATE dlfm_group SET state = 'A', del_txn = 0 WHERE del_txn = ?`
	sqlAbortGroups       = `DELETE FROM dlfm_group WHERE crt_txn = ?`
	sqlGroupTombstone    = `UPDATE dlfm_group SET state = 'G', expiry = ? WHERE grpid = ?`
	sqlExpiredGroups     = `SELECT grpid, expiry FROM dlfm_group WHERE state = 'G'`
	sqlDeleteGroupRow    = `DELETE FROM dlfm_group WHERE grpid = ?`
	sqlLinkedFilesOfGrp  = `SELECT name, recid, owner FROM dlfm_file WHERE grpid = ? AND state = 'L' LIMIT ?`
	sqlUnlinkedOfGroup   = `SELECT name, recid, chkflag FROM dlfm_file WHERE grpid = ? AND state = 'U'`
	sqlDropFileByNameChk = `DELETE FROM dlfm_file WHERE name = ? AND chkflag = ?`

	// Transaction table (Section 3.3). States: 'F' in flight (a batched
	// transaction's intermediate local commits), 'P' prepared, 'C'
	// committed with dropped groups the Delete Group daemon still owes, and
	// two outcomes kept until the host forgets them — 'O' committed in one
	// phase, 'A' aborted (QueryOutcome found nothing and made "none" final).
	sqlInsertTxn    = `INSERT INTO dlfm_txn (txnid, state, ngroups, ts) VALUES (?, ?, ?, ?)`
	sqlTxnState     = `SELECT state, ngroups FROM dlfm_txn WHERE txnid = ?`
	sqlSetTxnState  = `UPDATE dlfm_txn SET state = ?, ngroups = ? WHERE txnid = ?`
	sqlMarkTxnCmt   = `UPDATE dlfm_txn SET state = 'C' WHERE txnid = ?`
	sqlDeleteTxn    = `DELETE FROM dlfm_txn WHERE txnid = ?`
	sqlIndoubtTxns  = `SELECT txnid FROM dlfm_txn WHERE state = 'P'`
	sqlCommittedTxn = `SELECT txnid FROM dlfm_txn WHERE state = 'C'`
	sqlGroupsDone   = `DELETE FROM dlfm_txn WHERE txnid = ? AND state = 'C'`
	sqlKeptTxns     = `SELECT txnid FROM dlfm_txn WHERE state <> 'P' AND state <> 'F' AND state <> 'C'`
	sqlForgetTxn    = `DELETE FROM dlfm_txn WHERE txnid = ? AND ngroups = 0 AND state <> 'P' AND state <> 'F'`
	sqlHandOverTxn  = `UPDATE dlfm_txn SET state = 'C' WHERE txnid = ? AND state = 'O'`
	// The outcome-learner daemon also needs each prepared entry's age, so
	// it only consults the Paxos acceptors for transactions whose
	// coordinator has had a fair chance to finish phase 2 itself.
	sqlIndoubtTxnsTs = `SELECT txnid, ts FROM dlfm_txn WHERE state = 'P'`

	// Phase-2 commit (Figure 4) and abort compensation (Section 4).
	sqlFilesLinkedBy   = `SELECT name, grpid, owner FROM dlfm_file WHERE lnk_txn = ? AND state = 'L'`
	sqlFilesUnlinkedBy = `SELECT name, grpid, owner FROM dlfm_file WHERE unlnk_txn = ? AND state = 'U'`
	sqlPurgeMarkedDel  = `DELETE FROM dlfm_file WHERE del_txn = ?`
	sqlReadyArchives   = `UPDATE dlfm_archive SET state = 'R' WHERE txnid = ? AND state = 'W'`
	// Abort compensation. Entries the transaction CREATED are deleted in
	// any state (it may have linked and then unlinked the same file);
	// entries it only UNLINKED are restored to linked — the lnk_txn guard
	// keeps the two sets disjoint.
	sqlAbortLinks    = `DELETE FROM dlfm_file WHERE lnk_txn = ?`
	sqlAbortUnlinks  = `UPDATE dlfm_file SET state = 'L', chkflag = 0, unlnk_txn = 0, unlnk_time = 0, del_txn = 0 WHERE unlnk_txn = ? AND lnk_txn <> ?`
	sqlAbortArchives = `DELETE FROM dlfm_archive WHERE txnid = ?`

	// Copy daemon (Section 3.5) and backup coordination (Section 3.4).
	sqlPendingCopies = `SELECT name, recid, txnid FROM dlfm_archive WHERE state = 'R' ORDER BY prio DESC LIMIT ?`
	sqlDeleteArchive = `DELETE FROM dlfm_archive WHERE name = ? AND recid = ?`
	sqlBoostPriority = `UPDATE dlfm_archive SET prio = 1 WHERE state = 'R' AND recid <= ?`
	sqlCountPending  = `SELECT COUNT(*) FROM dlfm_archive WHERE state = 'R' AND recid <= ?`
	sqlInsertBackup  = `INSERT INTO dlfm_backup (backupid, recid, ts) VALUES (?, ?, ?)`
	sqlListBackups   = `SELECT backupid, recid FROM dlfm_backup ORDER BY backupid`
	sqlDeleteBackup  = `DELETE FROM dlfm_backup WHERE backupid = ?`
	sqlStaleUnlinked = `SELECT name, recid, chkflag, unlnk_txn FROM dlfm_file WHERE state = 'U' AND del_txn = 0 AND chkflag < ?`

	// Restore / reconcile (Section 3.4).
	sqlLinkedAfter    = `SELECT name, recid, chkflag FROM dlfm_file WHERE recid > ?`
	sqlRelinkUnlinked = `UPDATE dlfm_file SET state = 'L', chkflag = 0, unlnk_txn = 0, unlnk_time = 0, del_txn = 0 WHERE state = 'U' AND recid <= ? AND chkflag > ?`
	sqlAllLinked      = `SELECT name, recid, grpid, owner FROM dlfm_file WHERE state = 'L' AND chkflag = 0 ORDER BY name`
	sqlClearRecon     = `DELETE FROM dlfm_recon`
	sqlInsertRecon    = `INSERT INTO dlfm_recon (name, recid) VALUES (?, ?)`
	sqlReconLookup    = `SELECT recid FROM dlfm_recon WHERE name = ?`
	sqlAllRecon       = `SELECT name, recid FROM dlfm_recon ORDER BY name`

	// Upcall daemon (Section 3.5).
	sqlIsLinked = `SELECT grpid FROM dlfm_file WHERE name = ? AND state = 'L' AND chkflag = 0`
)

// allSQL enumerates every package statement for binding.
var allSQL = []string{
	sqlInsertFile, sqlFindLinked, sqlUnlinkKeep, sqlUnlinkMarkDel,
	sqlBackoutLink, sqlBackoutLinkArch, sqlBackoutUnlink, sqlInsertArchive,
	sqlGroupLookup, sqlInsertGroup, sqlMarkGroupDeleted,
	sqlGroupsOfTxn, sqlRestoreGroups, sqlAbortGroups, sqlGroupTombstone, sqlExpiredGroups,
	sqlDeleteGroupRow, sqlLinkedFilesOfGrp, sqlUnlinkedOfGroup,
	sqlDropFileByNameChk, sqlInsertTxn, sqlTxnState, sqlSetTxnState,
	sqlMarkTxnCmt, sqlDeleteTxn, sqlIndoubtTxns, sqlCommittedTxn, sqlIndoubtTxnsTs,
	sqlGroupsDone, sqlKeptTxns, sqlForgetTxn, sqlHandOverTxn,
	sqlFilesLinkedBy, sqlFilesUnlinkedBy, sqlPurgeMarkedDel,
	sqlReadyArchives, sqlAbortLinks, sqlAbortUnlinks, sqlAbortArchives,
	sqlPendingCopies, sqlDeleteArchive, sqlBoostPriority, sqlCountPending,
	sqlInsertBackup, sqlListBackups, sqlDeleteBackup, sqlStaleUnlinked,
	sqlLinkedAfter, sqlRelinkUnlinked, sqlAllLinked, sqlClearRecon,
	sqlInsertRecon, sqlReconLookup, sqlAllRecon, sqlIsLinked,
}

// stmtCache holds the bound packages. Lookup is cheap and concurrent;
// re-binding swaps statement pointers under the write lock.
type stmtCache struct {
	srv *Server
	mu  sync.RWMutex
	m   map[string]*engine.Stmt
}

func newStmtCache(srv *Server) *stmtCache {
	return &stmtCache{srv: srv, m: make(map[string]*engine.Stmt, len(allSQL))}
}

// bindAll (re)prepares every package statement against current statistics.
func (sc *stmtCache) bindAll() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for _, text := range allSQL {
		stmt, err := sc.srv.db.Prepare(text)
		if err != nil {
			return fmt.Errorf("core: bind %q: %w", text, err)
		}
		sc.m[text] = stmt
	}
	return nil
}

// rebindStale re-prepares only statements whose plans predate the current
// statistics version.
func (sc *stmtCache) rebindStale() error {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	for text, stmt := range sc.m {
		if stmt.NeedsRebind() {
			fresh, err := sc.srv.db.Prepare(text)
			if err != nil {
				return fmt.Errorf("core: rebind %q: %w", text, err)
			}
			sc.m[text] = fresh
		}
	}
	return nil
}

// get returns the bound statement for text; it must be one of allSQL.
func (sc *stmtCache) get(text string) *engine.Stmt {
	sc.mu.RLock()
	stmt := sc.m[text]
	sc.mu.RUnlock()
	if stmt == nil {
		panic("core: statement not in package: " + text)
	}
	return stmt
}
