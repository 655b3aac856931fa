package cluster

import (
	"fmt"
	"math"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
	"repro/internal/repl"
	"repro/internal/rpc"
	"repro/internal/wal"
)

// Online slot migration. A slot moves in five steps:
//
//  1. bulk copy: manifest the source's linked files, filter to the slot,
//     and install file bytes + linked entries at the target inside one
//     host-coordinated 2PC transaction. Writers keep hitting the source.
//  2. fence: block new writers for the slot and wait out in-flight ones.
//  3. drain: poll each side's retained WAL (reusing the internal/repl log
//     shipping protocol) until every transaction that touched the slot has
//     a commit or abort on record — the moment that side's slot state is
//     final. The scan starts at the log's beginning, not at a move-start
//     snapshot: a transaction that linked into the slot long before the
//     move and is still in flight has a dirty row sitting in both
//     manifests, and only its pre-move data record reveals it. The target
//     is drained too: a failed earlier round can leave its own migration
//     transaction prepared there, equally dirty in the manifest.
//  4. delta: re-manifest both sides (now quiesced for this slot) and
//     converge the target — late links copied over, bulk-copied files that
//     were unlinked removed — then delete the slot's entries at the source,
//     each side in its own 2PC transaction.
//  5. cutover: flip the slot's owner, persist the new table version, and
//     unfence; blocked writers wake and re-route to the new owner.
//
// Every transactional step runs under a transaction id minted (and marked
// live) by the host, so concurrent indoubt resolution never presumes abort
// for a migration mid-2PC — and if the mover dies between prepare and
// commit, presumed abort rolls the half-move back and the old owner stands.
// The step order is crash-safe too: the source delete commits before the
// owner flip, and until the flip commits readers dual-read both ends.

// Hooks is what the host database lends the mover. The cluster package
// deliberately does not import hostdb; these closures carry exactly the
// coordinator capabilities a move needs.
type Hooks struct {
	// Dial opens a fresh connection (= DLFM child agent) to a member.
	Dial func(server string) (*rpc.Client, error)
	// BeginTxn mints a host transaction id and marks it owned by a live
	// coordinator; EndTxn releases it. The pair brackets each migration
	// transaction so indoubt resolution leaves it alone (the PR-3 rule).
	BeginTxn func() int64
	EndTxn   func(int64)
	// ResolveIndoubts nudges the host's resolution machinery between drain
	// rounds, so transactions orphaned by a dead coordinator cannot stall
	// the cutover.
	ResolveIndoubts func()
	// NoteGroup records that a file group now has files on a server (the
	// host's dl_grpsrv registry), keeping DROP TABLE's delete-group fan-out
	// placement-aware after a move.
	NoteGroup func(grp int64, server string) error
	Tracer    *obs.Tracer
}

// Mover executes slot migrations against a Map.
type Mover struct {
	m *Map
	h Hooks
	// DrainTimeout bounds step 4. It should stay below the Map's
	// FenceTimeout: when a stalled transaction blocks the drain, the move
	// aborts and unfences before fenced writers start timing out.
	DrainTimeout time.Duration
	// BatchMax caps records per drain fetch; 0 = feed default.
	BatchMax int
}

// NewMover builds a mover; hooks must be fully populated except Tracer.
func NewMover(m *Map, h Hooks) *Mover {
	return &Mover{m: m, h: h, DrainTimeout: 5 * time.Second}
}

// manifestEntry is one linked file in a member's inventory.
type manifestEntry struct {
	recID int64
	grp   int64
	owner string
	// flags are the file's group attributes: bit 0 recovery, bit 1 full
	// control. They ride along so the target recreates the group as-is.
	flags int64
}

// Run executes moves sequentially, stopping at the first failure; it
// returns how many files the completed moves migrated.
func (mv *Mover) Run(moves []Move) (int, error) {
	files := 0
	for _, m := range moves {
		n, err := mv.MoveSlot(m)
		files += n
		if err != nil {
			return files, err
		}
	}
	return files, nil
}

// MoveSlot migrates one slot online. On error the move is aborted: the
// slot unfences with its old owner intact (half-copied target entries are
// rolled back by their own transaction's abort or by presumed abort).
func (mv *Mover) MoveSlot(move Move) (int, error) {
	ms, err := mv.m.beginMove(move)
	if err != nil {
		return 0, err
	}
	files, err := mv.runMove(ms)
	if err != nil {
		mv.m.abortMove(ms)
		return 0, fmt.Errorf("cluster %s: move slot %d %s->%s: %w",
			mv.m.name, move.Slot, move.From, move.To, err)
	}
	if err := mv.m.commitMove(ms, files); err != nil {
		// The owner flip could not be persisted; the slot stays with the
		// old owner. The source's entries were already deleted, so this
		// (host-engine-down) case needs the move re-run once the store
		// recovers; dual-read covered readers up to this point.
		mv.m.abortMove(ms)
		return 0, fmt.Errorf("cluster %s: cutover of slot %d: %w", mv.m.name, move.Slot, err)
	}
	return files, nil
}

func (mv *Mover) runMove(ms *moveState) (int, error) {
	slot, from, to := ms.mv.Slot, ms.mv.From, ms.mv.To
	src, err := mv.h.Dial(from)
	if err != nil {
		return 0, fmt.Errorf("dial source: %w", err)
	}
	defer src.Close()
	tgt, err := mv.h.Dial(to)
	if err != nil {
		return 0, fmt.Errorf("dial target: %w", err)
	}
	defer tgt.Close()

	trace := mv.h.BeginTxn()
	mv.h.EndTxn(trace)
	root := mv.h.Tracer.StartRoot(trace, "cluster", "move_slot").
		Attr("slot", fmt.Sprintf("%d", slot)).Attr("from", from).Attr("to", to)
	defer root.End()

	// 1. Bulk copy, unfenced: writers still run against the source, and
	// the manifest may even include uncommitted links — the post-drain
	// delta pass reconciles both.
	sp := mv.h.Tracer.StartSpan(root.Ctx(), "cluster", "bulk_copy")
	bulk, err := mv.manifest(src, slot)
	if err != nil {
		sp.End()
		return 0, fmt.Errorf("source manifest: %w", err)
	}
	if len(bulk) > 0 {
		if err := mv.copyFiles(src, tgt, bulk); err != nil {
			sp.End()
			return 0, fmt.Errorf("bulk copy: %w", err)
		}
	}
	sp.Attr("files", fmt.Sprintf("%d", len(bulk))).End()

	// 2. Fence the slot.
	sp = mv.h.Tracer.StartSpan(root.Ctx(), "cluster", "fence")
	err = mv.m.fence(ms)
	sp.End()
	if err != nil {
		return 0, err
	}

	// 3. Drain: the slot's source state is final once no transaction that
	// ever touched it is still undecided.
	sp = mv.h.Tracer.StartSpan(root.Ctx(), "cluster", "drain")
	err = mv.drain(src, slot)
	sp.End()
	if err != nil {
		return 0, err
	}
	// The target needs the same treatment before the delta manifests: an
	// earlier failed round of this move can leave a migration transaction
	// prepared at the target (its CommitReq lost to a kill or a dropped
	// connection), and the DumpTable manifest reads its uncommitted writes.
	// Converging on that dirty state and cutting over would let a later
	// presumed abort mutate the slot post-cutover — inserts vanish (lost
	// links) or deltadeletes roll back (orphan linked entries with no host
	// row). Draining the target settles every such transaction first; the
	// drain's ResolveIndoubts kicks let presumed abort do its work.
	sp = mv.h.Tracer.StartSpan(root.Ctx(), "cluster", "drain_target")
	err = mv.drain(tgt, slot)
	sp.End()
	if err != nil {
		return 0, err
	}

	// 4a. Delta: converge the target onto the source's final slot state.
	final, err := mv.manifest(src, slot)
	if err != nil {
		return 0, fmt.Errorf("final manifest: %w", err)
	}
	have, err := mv.manifest(tgt, slot)
	if err != nil {
		return 0, fmt.Errorf("target manifest: %w", err)
	}
	var adds map[string]manifestEntry
	var dels []string
	for name, e := range final {
		if h, ok := have[name]; !ok || h.recID != e.recID {
			if adds == nil {
				adds = make(map[string]manifestEntry)
			}
			adds[name] = e
		}
	}
	for name := range have {
		if _, ok := final[name]; !ok {
			dels = append(dels, name)
		}
	}
	if len(adds) > 0 || len(dels) > 0 {
		sp = mv.h.Tracer.StartSpan(root.Ctx(), "cluster", "delta").
			Attr("adds", fmt.Sprintf("%d", len(adds))).Attr("dels", fmt.Sprintf("%d", len(dels)))
		err := mv.inTxn(tgt, func(txn int64) error {
			for name, e := range adds {
				if err := mv.putFile(src, tgt, txn, name, e); err != nil {
					return err
				}
			}
			if len(dels) > 0 {
				resp, err := tgt.Call(rpc.MigrateDelReq{Txn: txn, Names: dels})
				if err != nil {
					return err
				}
				if !resp.OK() {
					return fmt.Errorf("target delta delete: %s: %s", resp.Code, resp.Msg)
				}
			}
			return nil
		})
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("delta sync: %w", err)
		}
	}

	// 4b. Delete the slot's entries at the source. This commits before the
	// owner flip: until the flip, readers dual-read and find the entries
	// at the target.
	if len(final) > 0 {
		names := make([]string, 0, len(final))
		for name := range final {
			names = append(names, name)
		}
		sp = mv.h.Tracer.StartSpan(root.Ctx(), "cluster", "source_delete")
		err := mv.inTxn(src, func(txn int64) error {
			resp, err := src.Call(rpc.MigrateDelReq{Txn: txn, Names: names})
			if err != nil {
				return err
			}
			if !resp.OK() {
				return fmt.Errorf("source delete: %s: %s", resp.Code, resp.Msg)
			}
			return nil
		})
		sp.End()
		if err != nil {
			return 0, fmt.Errorf("source cleanup: %w", err)
		}
	}

	// Group placement bookkeeping for the groups that now live on the
	// target, before the cutover makes them routable.
	if mv.h.NoteGroup != nil {
		grps := map[int64]bool{}
		for _, e := range final {
			grps[e.grp] = true
		}
		for grp := range grps {
			if err := mv.h.NoteGroup(grp, to); err != nil {
				return 0, fmt.Errorf("note group %d at %s: %w", grp, to, err)
			}
		}
	}
	return len(final), nil
}

// manifest fetches a member's linked-file inventory filtered to one slot.
func (mv *Mover) manifest(c *rpc.Client, slot int) (map[string]manifestEntry, error) {
	resp, err := c.Call(rpc.MigrateManifestReq{})
	if err != nil {
		return nil, err
	}
	if !resp.OK() {
		return nil, fmt.Errorf("manifest: %s: %s", resp.Code, resp.Msg)
	}
	out := make(map[string]manifestEntry)
	for i, name := range resp.Names {
		if SlotOf(name, mv.m.Slots()) != slot {
			continue
		}
		out[name] = manifestEntry{recID: resp.RecIDs[i], grp: resp.Grps[i], owner: resp.Owners[i], flags: resp.Flags[i]}
	}
	return out, nil
}

// copyFiles installs entries at the target in one 2PC transaction.
func (mv *Mover) copyFiles(src, tgt *rpc.Client, entries map[string]manifestEntry) error {
	return mv.inTxn(tgt, func(txn int64) error {
		for name, e := range entries {
			if err := mv.putFile(src, tgt, txn, name, e); err != nil {
				return err
			}
		}
		return nil
	})
}

// putFile moves one file's bytes and entry. A file that vanished from the
// source since the manifest (uncommitted link that aborted, or an unlink
// racing the bulk copy) is skipped — the delta pass sees the truth.
func (mv *Mover) putFile(src, tgt *rpc.Client, txn int64, name string, e manifestEntry) error {
	fr, err := src.Call(rpc.FetchFileReq{Name: name})
	if err != nil {
		return err
	}
	if fr.Code == "nofile" {
		return nil
	}
	if !fr.OK() {
		return fmt.Errorf("fetch %s: %s: %s", name, fr.Code, fr.Msg)
	}
	owner := e.owner
	if owner == "" {
		owner = fr.Msg
	}
	resp, err := tgt.Call(rpc.MigratePutReq{
		Txn: txn, Name: name, RecID: e.recID, Grp: e.grp, Owner: owner,
		Data: fr.Data, Recovery: e.flags&1 != 0, FullControl: e.flags&2 != 0,
	})
	if err != nil {
		return err
	}
	if !resp.OK() {
		return fmt.Errorf("put %s: %s: %s", name, resp.Code, resp.Msg)
	}
	return nil
}

// inTxn brackets fn in a host-minted 2PC transaction against one member:
// BeginTransaction, fn, prepare, commit — abort on any failure. The host
// marks the id live for the duration, so indoubt resolution cannot presume
// abort mid-move.
func (mv *Mover) inTxn(c *rpc.Client, fn func(txn int64) error) error {
	txn := mv.h.BeginTxn()
	defer mv.h.EndTxn(txn)
	resp, err := c.Call(rpc.BeginTxnReq{Txn: txn})
	if err == nil && !resp.OK() {
		err = fmt.Errorf("begin: %s: %s", resp.Code, resp.Msg)
	}
	if err != nil {
		return err
	}
	abort := func() {
		c.Call(rpc.AbortReq{Txn: txn}) //nolint:errcheck
	}
	if err := fn(txn); err != nil {
		abort()
		return err
	}
	resp, err = c.Call(rpc.PrepareReq{Txn: txn})
	if err == nil && !resp.OK() {
		err = fmt.Errorf("prepare: %s: %s", resp.Code, resp.Msg)
	}
	if err != nil {
		abort()
		return err
	}
	resp, err = c.Call(rpc.CommitReq{Txn: txn})
	if err == nil && !resp.OK() {
		err = fmt.Errorf("commit: %s: %s", resp.Code, resp.Msg)
	}
	if err != nil {
		// Prepared but the commit outcome is unknown: presumed abort
		// resolves it once EndTxn releases the id.
		return err
	}
	return nil
}

// drain polls the source's retained WAL from its beginning until every
// transaction that touched the slot is decided (commit or abort on record
// — local rollbacks append an abort record too), kicking indoubt resolution
// between rounds. Scanning from LSN 0 rather than a move-start snapshot is
// what catches a transaction that wrote into the slot before the move began
// and is still in flight: its dirty entry is visible to DumpTable manifests
// and must not survive a cutover it could later abort out of.
func (mv *Mover) drain(src *rpc.Client, slot int) error {
	deadline := time.Now().Add(mv.DrainTimeout)
	bo := fault.Backoff{Base: 10 * time.Millisecond, Cap: 150 * time.Millisecond}
	for attempt := 0; ; attempt++ {
		recs, _, err := repl.FetchRange(src, 0, math.MaxInt64, mv.BatchMax)
		if err != nil {
			return fmt.Errorf("drain fetch: %w", err)
		}
		if n := mv.undecided(recs, slot); n == 0 {
			return nil
		} else if time.Now().After(deadline) {
			return fmt.Errorf("drain: %d transactions touching slot %d still undecided after %v",
				n, slot, mv.DrainTimeout)
		}
		if mv.h.ResolveIndoubts != nil {
			mv.h.ResolveIndoubts()
		}
		// Capped backoff with jitter: an undecided transaction usually
		// settles within a round trip, but a crashed coordinator takes a
		// resolution pass — polling flat-out just contends with it.
		time.Sleep(bo.Delay(attempt))
	}
}

// undecided counts transactions with slot-touching dlfm_file writes whose
// outcome is not final. A local commit/abort record is necessary but not
// sufficient: under the delayed-update scheme a 2PC participant COMMITS its
// local transaction at prepare time (hardening a dlfm_txn row in state 'P')
// and a later global abort compensates in a fresh local transaction. Such a
// transaction has RecCommit in the stream while its slot writes can still
// be undone — treating it as decided is how a cutover used to race phase 2
// and strand orphan or resurrected entries. So a transaction that prepared
// (dlfm_txn 'P') stays undecided until the global decision reaches this
// member: a committed 'C' mark or a committed delete of its dlfm_txn row.
func (mv *Mover) undecided(recs []wal.Record, slot int) int {
	touched := map[int64]bool{}      // local txns with slot-touching dlfm_file writes
	committed := map[int64]bool{}    // local txns with a commit record
	decided := map[int64]bool{}      // local txns with a commit or abort record
	pendingOf := map[int64]int64{}   // prepare local txn -> global txn id
	resolvers := map[int64][]int64{} // global txn id -> local txns carrying its decision
	for _, r := range recs {
		switch r.Type {
		case wal.RecInsert, wal.RecDelete, wal.RecUpdate:
			row := r.After
			if len(row) == 0 {
				row = r.Before
			}
			switch r.Table {
			case "dlfm_file":
				if len(row) == 0 {
					continue
				}
				if SlotOf(row[0].Text(), mv.m.Slots()) == slot {
					touched[r.Txn] = true
				}
			case "dlfm_txn":
				// Columns: txnid (global id), state, ngroups, ts.
				if len(row) < 2 {
					continue
				}
				gid := row[0].Int64()
				if st := row[1].Text(); r.Type != wal.RecDelete && (st == "P" || st == "F") {
					// 'P' = prepared, 'F' = in-flight batched local commit;
					// both mean local effects without a global decision.
					pendingOf[r.Txn] = gid
				} else {
					// 'C' mark, row delete (abort compensation), or any
					// other state change: a decision attempt for gid. It
					// only counts once its own local transaction commits.
					resolvers[gid] = append(resolvers[gid], r.Txn)
				}
			}
		case wal.RecCommit:
			committed[r.Txn] = true
			decided[r.Txn] = true
		case wal.RecAbort:
			decided[r.Txn] = true
		}
	}
	resolved := func(gid int64) bool {
		for _, txn := range resolvers[gid] {
			if committed[txn] {
				return true
			}
		}
		return false
	}
	n := 0
	for txn := range touched {
		if !decided[txn] {
			n++
			continue
		}
		// Only a COMMITTED prepare pends on the global decision — a local
		// abort rolled the 'P' row back along with the slot writes.
		if gid, ok := pendingOf[txn]; ok && committed[txn] && !resolved(gid) {
			n++ // locally committed at prepare, globally still in doubt
		}
	}
	return n
}
