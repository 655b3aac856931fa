package core

import (
	"fmt"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/rpc"
	"repro/internal/value"
)

// TestOnePhaseLinkStatements pins the one-phase commit's cost: a link and
// its commit run the group lookup, the insert, the forget of the previous
// outcome and the transaction entry — no read-back of the commit work —
// in one local commit.
func TestOnePhaseLinkStatements(t *testing.T) {
	h := newHarness(t)
	h.createGroup(h.agent, 1, false, false)
	link := func(name string) {
		h.createFile(name, "app", "x")
		txn := h.nextTxn()
		h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: name, RecID: h.nextRec(), Grp: 1}))
		h.must(h.agent.Handle(rpc.OnePhaseCommitReq{Txn: txn}))
	}
	link("/s/warm") // leaves an outcome for the measured commit to forget
	before := h.srv.DB().Stats()
	link("/s/f")
	after := h.srv.DB().Stats()
	stmts := after.Selects + after.Inserts + after.Updates + after.Deletes -
		(before.Selects + before.Inserts + before.Updates + before.Deletes)
	if stmts > 4 {
		t.Errorf("link + one-phase commit ran %d DLFM statements, want <= 4", stmts)
	}
	if n := after.Commits - before.Commits; n != 1 {
		t.Errorf("link + one-phase commit made %d local commits, want 1", n)
	}
}

// TestCommitChownDespiteLockedGroup holds the linked file's group row
// X-locked in another local transaction while the commit runs, with a lock
// timeout far shorter than the hold. The file must still be taken over:
// a one-phase commit has the group's attributes from its log, and phase 2
// reads them inside its own local transaction, whose retry loop waits the
// holder out.
func TestCommitChownDespiteLockedGroup(t *testing.T) {
	for _, twoPhase := range []bool{false, true} {
		t.Run(fmt.Sprintf("twoPhase=%v", twoPhase), func(t *testing.T) {
			h := newHarness(t, func(c *Config) { c.DB.LockTimeout = 20 * time.Millisecond })
			h.createGroup(h.agent, 1, false, true)
			h.createFile("/g/f", "app", "x")
			txn := h.nextTxn()
			h.must(h.agent.Handle(rpc.LinkFileReq{Txn: txn, Name: "/g/f", RecID: h.nextRec(), Grp: 1}))

			holder := h.srv.DB().Connect()
			if _, err := holder.Exec(`UPDATE dlfm_group SET expiry = 1 WHERE grpid = 1`); err != nil {
				t.Fatal(err)
			}
			if twoPhase {
				h.must(h.agent.Handle(rpc.PrepareReq{Txn: txn}))
				var wg sync.WaitGroup
				wg.Add(1)
				go func() {
					defer wg.Done()
					// Release the group once phase 2 has met the lock.
					for deadline := time.Now().Add(2 * time.Second); h.srv.Stats().Phase2Retries == 0 && time.Now().Before(deadline); {
						time.Sleep(time.Millisecond)
					}
					holder.Rollback()
				}()
				h.must(h.agent.Handle(rpc.CommitReq{Txn: txn}))
				wg.Wait()
			} else {
				h.must(h.agent.Handle(rpc.OnePhaseCommitReq{Txn: txn}))
				holder.Rollback()
			}
			fi, err := h.fs.Stat("/g/f")
			if err != nil {
				t.Fatal(err)
			}
			if fi.Owner != h.srv.cfg.AdminUser || !fi.ReadOnly {
				t.Fatalf("after commit the file is owned by %q (read-only %v), want taken over by %q",
					fi.Owner, fi.ReadOnly, h.srv.cfg.AdminUser)
			}
		})
	}
}

// Groups the commit-log fuzz links into, with the attributes createGroup
// gives them: 1 and 11 recovery, 2 and 12 full control, 3 and 13 both, 4
// and 14 neither. Groups 1–4 exist before the transaction; 11–14 only once
// it creates them.
var fuzzGroups = [8]int64{1, 2, 3, 4, 11, 12, 13, 14}

func fuzzGroupAttrs(grp int64) (recovery, fullctl bool) {
	k := grp % 10
	return k == 1 || k == 3, k == 2 || k == 3
}

// fuzzDLFM is one DLFM of FuzzCommitWorkLog: files /z/f0–/z/f7, of which
// f0–f3 are linked by earlier transactions in groups 1–4.
func fuzzDLFM(t *testing.T) *harness {
	h := newHarness(t, func(c *Config) { c.ManualDeleteGroup = true })
	for i := 0; i < 8; i++ {
		h.createFile(fmt.Sprintf("/z/f%d", i), "app", "x")
	}
	for i, grp := range fuzzGroups[:4] {
		recovery, fullctl := fuzzGroupAttrs(grp)
		h.createGroup(h.agent, grp, recovery, fullctl)
		h.linkCommitted(h.agent, fmt.Sprintf("/z/f%d", i), grp)
	}
	return h
}

// fuzzOp is one successful link or unlink of the fuzzed transaction, kept
// so a later op can back it out.
type fuzzOp struct {
	link  bool
	name  string
	recID int64
}

// FuzzCommitWorkLog runs one transaction, decoded from the input, on two
// identical DLFMs: links and unlinks in recovery and no-recovery groups,
// unlinks of its own links, backouts, group creation and deletion, and —
// when the first byte is odd — as a batched Load committing locally every
// two operations. One DLFM commits it in one phase from the agent's log;
// the other commits it the way the query path does (count the dropped
// groups, gather the work from the tables), and before its commit the
// query's answers must equal the log's. Afterwards both DLFMs must hold the
// same tables and the same file ownership.
func FuzzCommitWorkLog(f *testing.F) {
	const (
		opLink = iota
		opUnlink
		opBackout
		opDeleteGroup
		opCreateGroup
		nOps
	)
	f.Add([]byte{0, opLink, 4, opLink, 5 | 1<<3})                                            // links, recovery + full control
	f.Add([]byte{0, opUnlink, 0, opUnlink, 1, opUnlink, 2})                                  // unlinks, recovery and not
	f.Add([]byte{0, opLink, 4 | 1<<3, opUnlink, 4, opLink, 5, opUnlink, 5})                  // unlink own links
	f.Add([]byte{0, opUnlink, 1, opLink, 1 | 2<<3})                                          // unlink, relink the name
	f.Add([]byte{0, opLink, 4 | 2<<3, opUnlink, 1, opBackout, 0, opBackout, 0})              // backouts
	f.Add([]byte{0, opCreateGroup, 2, opLink, 6 | 6<<3, opDeleteGroup, 3, opDeleteGroup, 6}) // group created, two dropped
	f.Add([]byte{1, opLink, 4, opLink, 5 | 1<<3, opUnlink, 2, opLink, 6, opLink, 7})         // batched Load
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 41 {
			return
		}
		dl, ref := fuzzDLFM(t), fuzzDLFM(t)
		txn, rec := dl.nextTxn(), dl.nextRec()
		ref.nextTxn()
		// both applies req to the two DLFMs, which must answer alike.
		both := func(req any) rpc.Response {
			resp := dl.agent.Handle(req)
			if r := ref.agent.Handle(req); r.Code != resp.Code {
				t.Fatalf("%T: the DLFMs answer %q and %q", req, resp.Code, r.Code)
			}
			switch resp.Code {
			case "", "duplicate", "nofile", "nogroup", "notlinked":
			default:
				t.Fatalf("%T: %s: %s", req, resp.Code, resp.Msg)
			}
			return resp
		}
		if data[0]&1 == 1 {
			both(rpc.BeginTxnReq{Txn: txn, Batched: true, BatchN: 2})
		}
		var done []fuzzOp
		for i := 1; i+1 < len(data); i += 2 {
			op, arg := data[i]%nOps, data[i+1]
			name := fmt.Sprintf("/z/f%d", arg&7)
			switch op {
			case opLink:
				rec++
				if both(rpc.LinkFileReq{Txn: txn, Name: name, RecID: rec, Grp: fuzzGroups[arg>>3&7]}).OK() {
					done = append(done, fuzzOp{link: true, name: name})
				}
			case opUnlink:
				rec++
				if both(rpc.UnlinkFileReq{Txn: txn, Name: name, RecID: rec}).OK() {
					done = append(done, fuzzOp{name: name, recID: rec})
				}
			case opBackout:
				if len(done) == 0 {
					continue
				}
				k := int(arg) % len(done)
				d := done[k]
				done = append(done[:k], done[k+1:]...)
				if d.link {
					both(rpc.LinkFileReq{Txn: txn, Name: d.name, InBackout: true})
				} else {
					both(rpc.UnlinkFileReq{Txn: txn, Name: d.name, RecID: d.recID, InBackout: true})
				}
			case opDeleteGroup:
				both(rpc.DeleteGroupReq{Txn: txn, Grp: fuzzGroups[arg&7]})
			case opCreateGroup:
				grp := fuzzGroups[4+arg&3]
				recovery, fullctl := fuzzGroupAttrs(grp)
				both(rpc.CreateGroupReq{Txn: txn, Grp: grp, Recovery: recovery, FullControl: fullctl})
			}
		}

		log := dl.agent.log
		log.work = append([]chownWork(nil), log.work...)
		queried := queryPathCommit(t, ref.agent)
		if queried.ngroups != log.ngroups {
			t.Errorf("dropped groups: log %d, query %d", log.ngroups, queried.ngroups)
		}
		if !log.stale {
			if !reflect.DeepEqual(sortedWork(log.work), sortedWork(queried.work)) {
				t.Errorf("chown work: log %+v, query %+v", log.work, queried.work)
			}
			if log.archived != queried.archived || log.marked != queried.marked {
				t.Errorf("archives readied / entries purged: log %v/%v, query %v/%v",
					log.archived, log.marked, queried.archived, queried.marked)
			}
		}
		dl.must(dl.agent.Handle(rpc.OnePhaseCommitReq{Txn: txn}))

		for _, table := range []string{"dlfm_file", "dlfm_group", "dlfm_txn", "dlfm_archive"} {
			if got, want := fuzzTable(t, dl, table), fuzzTable(t, ref, table); !reflect.DeepEqual(got, want) {
				t.Errorf("%s after commit:\n log path   %v\n query path %v", table, got, want)
			}
		}
		for i := 0; i < 8; i++ {
			name := fmt.Sprintf("/z/f%d", i)
			got, _ := dl.fs.Stat(name)
			want, _ := ref.fs.Stat(name)
			if got.Owner != want.Owner || got.ReadOnly != want.ReadOnly {
				t.Errorf("%s after commit: log path %s/%v, query path %s/%v",
					name, got.Owner, got.ReadOnly, want.Owner, want.ReadOnly)
			}
		}
	})
}

// queryPathCommit commits a's transaction in one phase with every piece of
// its commit work read from the tables, as before the agent kept a log —
// the dropped groups counted, the entries purged counted — and returns
// what it found in the log's terms.
func queryPathCommit(t *testing.T, a *ChildAgent) commitLog {
	t.Helper()
	var found commitLog
	if !a.conn.InTxn() && !a.txnRow {
		a.resetTxn()
		return found
	}
	txn := a.cur
	var err error
	if found.ngroups, _, err = a.conn.QueryInt(`SELECT COUNT(*) FROM dlfm_group WHERE del_txn = ?`, value.Int(txn)); err != nil {
		t.Fatal(err)
	}
	marked, _, err := a.conn.QueryInt(`SELECT COUNT(*) FROM dlfm_file WHERE del_txn = ?`, value.Int(txn))
	if err != nil {
		t.Fatal(err)
	}
	found.marked = marked > 0
	if err := a.hardenTxn("O", found.ngroups); err != nil {
		t.Fatal(err)
	}
	if found.work, found.archived, err = a.srv.gatherCommitWork(a.conn, txn); err != nil {
		t.Fatal(err)
	}
	if err := a.conn.Commit(); err != nil {
		t.Fatal(err)
	}
	a.srv.afterCommit(txn, found.ngroups, found.work, found.archived)
	a.resetTxn()
	return found
}

func sortedWork(work []chownWork) []chownWork {
	out := append([]chownWork(nil), work...)
	sort.Slice(out, func(i, j int) bool { return fmt.Sprint(out[i]) < fmt.Sprint(out[j]) })
	return out
}

// fuzzTable dumps one table as sorted rows, clock columns blanked, after
// the Copy daemon has taken every archive copy the commit readied.
func fuzzTable(t *testing.T, h *harness, table string) []string {
	t.Helper()
	clock := map[string]int{"dlfm_file": 5, "dlfm_txn": 3}
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		rows, err := h.srv.DB().DumpTable(table)
		if err != nil {
			t.Fatal(err)
		}
		var out []string
		pending := false
		for _, r := range rows {
			if table == "dlfm_archive" && r[4].Text() == "R" {
				pending = true
			}
			if i, ok := clock[table]; ok {
				r = append(value.Row(nil), r...)
				r[i] = value.Int(0)
			}
			out = append(out, fmt.Sprint(r))
		}
		if !pending {
			sort.Strings(out)
			return out
		}
		if time.Now().After(deadline) {
			t.Fatalf("%s: readied archive copies never taken", table)
		}
	}
}
