package core

import (
	"errors"

	"repro/internal/engine"
	"repro/internal/rpc"
	"repro/internal/value"
)

// Migration handlers: the DLFM side of the cluster mover (internal/cluster).
// A slot migration copies linked files — bytes and metadata — from one
// member to another, so the source serves a manifest and per-file fetches,
// and the target installs files and entries inside an ordinary 2PC
// transaction driven by the host. The source's final cleanup (MigrateDel)
// is transactional too, so a crash mid-move never half-deletes a slot.

// migrateManifest inventories the linked entries. It reads through
// DumpTable rather than a SELECT: an S-lock scan of dlfm_file would stall
// every concurrent link/unlink on the server for the duration (or deadlock
// against them), and the mover does not need a serializable snapshot — the
// pre-cutover copy is reconciled by the fenced delta pass, and the
// post-drain pass reads a quiesced slot where dirty rows cannot exist.
func (a *ChildAgent) migrateManifest() rpc.Response {
	rows, err := a.srv.db.DumpTable("dlfm_file")
	if err != nil {
		return fail(err)
	}
	grps, err := a.srv.db.DumpTable("dlfm_group")
	if err != nil {
		return fail(err)
	}
	// Group attribute flags travel with each file (bit 0 recovery, bit 1
	// full control) so the target can recreate the group faithfully.
	flags := make(map[int64]int64, len(grps))
	for _, g := range grps {
		// Columns: grpid, recovery, fullctl, state, crt_txn, del_txn, expiry.
		flags[g[0].Int64()] = g[1].Int64() | g[2].Int64()<<1
	}
	resp := rpc.Response{}
	for _, r := range rows {
		// Columns: name, grpid, recid, lnk_txn, unlnk_txn, unlnk_time,
		// state, chkflag, del_txn, owner.
		if r[6].Text() != "L" || r[7].Int64() != 0 {
			continue
		}
		resp.Names = append(resp.Names, r[0].Text())
		resp.Grps = append(resp.Grps, r[1].Int64())
		resp.RecIDs = append(resp.RecIDs, r[2].Int64())
		resp.Owners = append(resp.Owners, r[9].Text())
		resp.Flags = append(resp.Flags, flags[r[1].Int64()])
	}
	resp.N = int64(len(resp.Names))
	return resp
}

// fetchFile serves one file's bytes for the bulk copy; the owner rides in
// Msg. Served from the file server directly — link metadata travels in the
// manifest.
func (a *ChildAgent) fetchFile(r rpc.FetchFileReq) rpc.Response {
	fi, err := a.srv.fs.Stat(r.Name)
	if err != nil {
		return failCode("nofile", "file %s not found on server %s", r.Name, a.srv.cfg.ServerName)
	}
	data, err := a.srv.fs.Read(r.Name)
	if err != nil {
		return failCode("nofile", "read %s on server %s: %v", r.Name, a.srv.cfg.ServerName, err)
	}
	return rpc.Response{Data: data, Msg: fi.Owner}
}

// migratePut installs one migrated file at the new owner: bytes first (the
// file-server write is not transactional, but an orphan file without a
// linked entry is harmless and invisible), then the linked entry under the
// migration transaction, creating the file group on first contact. Any
// existing linked entry for the name is replaced so delta re-syncs
// converge.
func (a *ChildAgent) migratePut(r rpc.MigratePutReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	a.wrote = true
	a.log.stale = true // replaces entries wholesale; the commit re-reads them
	grp, err := a.srv.groupInfo(a.conn, r.Grp)
	if err != nil {
		return fail(err)
	}
	if grp == nil {
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
		grp = &group{recovery: r.Recovery, fullctl: r.FullControl, state: "A"}
	}
	if grp.state != "A" {
		return failCode("nogroup", "file group %d is deleted on server %s", r.Grp, a.srv.cfg.ServerName)
	}
	if err := a.srv.fs.Restore(r.Name, r.Owner, r.Data, false); err != nil {
		return fail(err)
	}
	if _, err := a.srv.stmts.get(sqlDropFileByNameChk).Exec(a.conn,
		value.Str(r.Name), value.Int(0)); err != nil {
		return fail(err)
	}
	if _, err := a.srv.stmts.get(sqlInsertFile).Exec(a.conn,
		value.Str(r.Name), value.Int(r.Grp), value.Int(r.RecID),
		value.Int(r.Txn), value.Str(r.Owner)); err != nil {
		if errors.Is(err, engine.ErrDuplicate) {
			return failCode("duplicate", "file %s is already linked", r.Name)
		}
		return fail(err)
	}
	if grp.recovery {
		// Re-archive on the new owner: the archive copy is per-server.
		if _, err := a.srv.stmts.get(sqlInsertArchive).Exec(a.conn,
			value.Str(r.Name), value.Int(r.RecID), value.Int(r.Grp), value.Int(r.Txn)); err != nil {
			return fail(err)
		}
	}
	a.srv.stats.MigratedIn.Add(1)
	a.srv.tracer.Emit(r.Txn, "agent", "migrate_put", r.Name)
	return ok
}

// migrateDel removes linked entries after cutover (source side) or when an
// aborted move rolls its copies back (target side). Unlinked history rows
// (chkflag != 0) stay behind for point-in-time restore of this server.
func (a *ChildAgent) migrateDel(r rpc.MigrateDelReq) rpc.Response {
	if err := a.requireTxn(r.Txn); err != nil {
		return failCode("severe", "%v", err)
	}
	a.wrote = true
	a.log.stale = true
	var n int64
	for _, name := range r.Names {
		nn, err := a.srv.stmts.get(sqlDropFileByNameChk).Exec(a.conn,
			value.Str(name), value.Int(0))
		if err != nil {
			return fail(err)
		}
		if nn > 0 {
			if _, err := a.conn.Exec(`DELETE FROM dlfm_archive WHERE name = ?`,
				value.Str(name)); err != nil {
				return fail(err)
			}
		}
		n += nn
	}
	a.srv.stats.MigratedOut.Add(n)
	a.srv.tracer.Emit(r.Txn, "agent", "migrate_del", "")
	return rpc.Response{N: n}
}
