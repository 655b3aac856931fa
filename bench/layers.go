package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"repro/internal/archive"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/fsim"
	"repro/internal/lock"
	"repro/internal/obs"
	"repro/internal/paxoscommit"
	"repro/internal/rpc"
	"repro/internal/sql"
	"repro/internal/storage"
	"repro/internal/value"
	"repro/internal/wal"
	"repro/internal/workload"
)

// The direct drives call one layer's public functions in isolation, with
// inputs shaped like the workload's, one goroutine, each call timed. They
// give unit costs; the traced pass gives how many units a transaction buys.

// driven is the outcome of one direct drive.
type driven struct {
	ns     float64 // median time of one call
	n      int     // calls made
	allocs float64 // heap allocations per call
}

func (d driven) us() float64 { return d.ns / 1e3 }

// drive calls f for about budget and returns the median call time. Calls
// far below a microsecond are timed in batches, because reading the clock
// costs as much as they do; prep, when set, runs before each sample and is
// not timed.
func drive(budget time.Duration, batch int, prep func(i int) error, f func(i int) error) (driven, error) {
	var samples []float64
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	i := 0
	for begin := time.Now(); time.Since(begin) < budget || len(samples) < 5; {
		if prep != nil {
			if err := prep(i); err != nil {
				return driven{}, err
			}
		}
		start := time.Now()
		for b := 0; b < batch; b++ {
			if err := f(i); err != nil {
				return driven{}, err
			}
			i++
		}
		samples = append(samples, float64(time.Since(start))/float64(batch))
	}
	runtime.ReadMemStats(&ms1)
	sort.Float64s(samples)
	return driven{ns: quantile(samples, 0.5), n: i, allocs: float64(ms1.Mallocs-ms0.Mallocs) / float64(i)}, nil
}

// fileRow is a row shaped like DLFM's dlfm_file metadata.
func fileRow(i int) value.Row {
	return value.Row{
		value.Str(fmt.Sprintf("/w/c0/f%08d", i)), value.Int(1), value.Int(int64(i)), value.Int(int64(i)),
		value.Int(0), value.Int(0), value.Str("L"), value.Int(0), value.Int(0), value.Str("app"),
	}
}

type noopAgent struct{}

func (noopAgent) Handle(any) rpc.Response { return rpc.Response{} }
func (noopAgent) Close()                  {}
func (noopAgent) NewAgent() rpc.Agent     { return noopAgent{} }

// driveRPC times Client.Call of a link request to an agent that does
// nothing, over the stack's in-process pipe: envelope, gob both ways, and
// the goroutine hand-offs.
func driveRPC(budget time.Duration) (driven, error) {
	c := rpc.LocalPair(noopAgent{})
	defer c.Close()
	req := rpc.LinkFileReq{Txn: 1, Name: "/w/c0/f00000001", RecID: 1, Grp: 1}
	return drive(budget, 1, nil, func(int) error { return caller(c.Call).send(req) })
}

// caller sends one request to a DLFM: an rpc.Client's Call, or an agent's
// Handle with no transport.
type caller func(req any) (rpc.Response, error)

// send issues the requests in order and fails on the first that does.
func (call caller) send(reqs ...any) error {
	for _, req := range reqs {
		resp, err := call(req)
		if err != nil {
			return err
		}
		if !resp.OK() {
			return fmt.Errorf("%s: %s %s", rpc.Name(req), resp.Code, resp.Msg)
		}
	}
	return nil
}

// agentTxn sends one participant's share of a one-row transaction: begin,
// link or unlink, prepare, commit.
func (call caller) agentTxn(txn int64, link bool, path string, grp int64) error {
	var op any = rpc.LinkFileReq{Txn: txn, Name: path, RecID: txn, Grp: grp}
	if !link {
		op = rpc.UnlinkFileReq{Txn: txn, Name: path, RecID: txn, Grp: grp}
	}
	return call.send(rpc.BeginTxnReq{Txn: txn}, op, rpc.PrepareReq{Txn: txn}, rpc.CommitReq{Txn: txn})
}

// createGroup makes file group grp on the server behind call.
func (call caller) createGroup(txn, grp int64) error {
	return call.send(rpc.BeginTxnReq{Txn: txn}, rpc.CreateGroupReq{Txn: txn, Grp: grp},
		rpc.PrepareReq{Txn: txn}, rpc.CommitReq{Txn: txn})
}

// driveCore times a link transaction and then an unlink transaction of the
// same files straight into an agent's Handle — no transport, no host.
func driveCore(budget time.Duration, dataDir string) (link, unlink driven, err error) {
	fs := fsim.NewServer("fs1")
	cfg := core.DefaultConfig("fs1")
	if dataDir != "" {
		cfg.DB.DataDir = filepath.Join(dataDir, "drive-core")
		cfg.DB.LogPath = filepath.Join(cfg.DB.DataDir, "db.wal")
		cfg.DB.PoolPages = poolPages
	}
	srv, err := core.New(cfg, fs, archive.NewServer())
	if err != nil {
		return link, unlink, err
	}
	defer srv.Close()
	agent := srv.NewAgent()
	defer agent.Close()
	call := caller(func(req any) (rpc.Response, error) { return agent.Handle(req), nil })
	const grp = 7
	if err := call.createGroup(1, grp); err != nil {
		return link, unlink, err
	}
	path := func(i int) string { return fmt.Sprintf("/w/c0/f%08d", i) }
	link, err = drive(budget, 1,
		func(i int) error { return fs.Create(path(i), "app", []byte("x")) },
		func(i int) error { return call.agentTxn(int64(10+i), true, path(i), grp) })
	if err != nil {
		return link, unlink, err
	}
	next := 0
	unlink, err = drive(budget, 1,
		func(int) error {
			if next >= link.n { // ran out of linked files: link one more, untimed
				if err := fs.Create(path(next), "app", []byte("x")); err != nil {
					return err
				}
				return call.agentTxn(int64(10+next), true, path(next), grp)
			}
			return nil
		},
		func(int) error {
			next++
			return call.agentTxn(int64(1<<40+next), false, path(next-1), grp)
		})
	return link, unlink, err
}

// engineCosts are the engine drive's medians. The four *Txn figures are one
// prepared statement plus its Commit; stmt and commit split the insert for
// the ledger.
type engineCosts struct {
	insert, lookup, update, del driven
	stmtNS, commitNS            float64
}

// driveEngine times prepared statements on a table shaped like dlfm_file
// with two indexes, each followed by Commit, on the workload's table
// backing.
func driveEngine(budget time.Duration, dataDir string) (engineCosts, error) {
	var out engineCosts
	cfg := engine.DefaultConfig("drive")
	cfg.NextKeyLocking = false
	cfg.SyncCommit, cfg.GroupCommit = true, true
	if dataDir != "" {
		cfg.DataDir = filepath.Join(dataDir, "drive-engine")
		cfg.LogPath = filepath.Join(cfg.DataDir, "db.wal")
		cfg.PoolPages = poolPages
	}
	db, err := engine.Open(cfg)
	if err != nil {
		return out, err
	}
	defer db.Close()
	c := db.Connect()
	for _, ddl := range []string{
		`CREATE TABLE f (name VARCHAR NOT NULL, grpid BIGINT NOT NULL, recid BIGINT NOT NULL, lnk_txn BIGINT NOT NULL,
			unlnk_txn BIGINT NOT NULL, unlnk_time BIGINT NOT NULL, state VARCHAR NOT NULL, chkflag BIGINT NOT NULL,
			del_txn BIGINT NOT NULL, owner VARCHAR NOT NULL)`,
		`CREATE UNIQUE INDEX f_nc ON f (name, chkflag)`,
		`CREATE INDEX f_ltxn ON f (lnk_txn)`,
	} {
		if _, err := c.Exec(ddl); err != nil {
			return out, err
		}
	}
	const big = 10_000_000
	if err := db.SetStats("f", big, map[string]int64{"name": big, "chkflag": big, "lnk_txn": big}); err != nil {
		return out, err
	}
	prep := func(text string) *engine.Stmt {
		st, perr := db.Prepare(text)
		if perr != nil && err == nil {
			err = perr
		}
		return st
	}
	ins := prep(`INSERT INTO f (name, grpid, recid, lnk_txn, unlnk_txn, unlnk_time, state, chkflag, del_txn, owner) VALUES (?, ?, ?, ?, ?, ?, ?, ?, ?, ?)`)
	sel := prep(`SELECT recid FROM f WHERE name = ? AND chkflag = 0`)
	upd := prep(`UPDATE f SET state = ?, unlnk_txn = ? WHERE name = ? AND chkflag = 0`)
	del := prep(`DELETE FROM f WHERE name = ? AND chkflag = 0`)
	if err != nil {
		return out, err
	}
	name := func(i int) value.Value { return value.Str(fmt.Sprintf("/w/c0/f%08d", i)) }
	one := func(n int64, err error) error {
		if err == nil && n != 1 {
			err = fmt.Errorf("engine drive: statement touched %d rows, want 1", n)
		}
		return err
	}
	var stmts, commits []float64
	if out.insert, err = drive(budget, 1, nil, func(i int) error {
		t0 := time.Now()
		if err := one(ins.Exec(c, fileRow(i)...)); err != nil {
			return err
		}
		t1 := time.Now()
		err := c.Commit()
		stmts, commits = append(stmts, float64(t1.Sub(t0))), append(commits, float64(time.Since(t1)))
		return err
	}); err != nil {
		return out, err
	}
	out.stmtNS, out.commitNS = median(stmts), median(commits)
	rows := out.insert.n
	if out.lookup, err = drive(budget, 1, nil, func(i int) error {
		got, err := sel.Query(c, name(i%rows))
		if err == nil && len(got) != 1 {
			err = fmt.Errorf("engine drive: lookup returned %d rows", len(got))
		}
		if err != nil {
			return err
		}
		return c.Commit()
	}); err != nil {
		return out, err
	}
	if out.update, err = drive(budget, 1, nil, func(i int) error {
		if err := one(upd.Exec(c, value.Str("U"), value.Int(int64(i)), name(i%rows))); err != nil {
			return err
		}
		return c.Commit()
	}); err != nil {
		return out, err
	}
	next := 0
	out.del, err = drive(budget, 1,
		func(int) error {
			if next >= rows { // table drained: put one row back, untimed
				if err := one(ins.Exec(c, fileRow(next)...)); err != nil {
					return err
				}
				return c.Commit()
			}
			return nil
		},
		func(int) error {
			next++
			if err := one(del.Exec(c, name(next-1))); err != nil {
				return err
			}
			return c.Commit()
		})
	return out, err
}

// driveParse times sql.Parse over the statement texts the workload's mix
// sends (the host parses user SQL on every statement).
func driveParse(budget time.Duration, m workload.Mix) (driven, error) {
	var texts []string
	if m.InsertPct > 0 {
		texts = append(texts, sqlInsert)
	}
	if m.UpdatePct > 0 {
		texts = append(texts, sqlUpdate)
	}
	if m.DeletePct > 0 {
		texts = append(texts, sqlDelete)
	}
	if m.InsertPct+m.UpdatePct+m.DeletePct < 100 {
		texts = append(texts, sqlSelect)
	}
	return drive(budget, len(texts), nil, func(i int) error {
		_, err := sql.Parse(texts[i%len(texts)])
		return err
	})
}

// driveCodec times encoding and decoding one dlfm_file-shaped row.
func driveCodec(budget time.Duration) (driven, error) {
	row := fileRow(1)
	var buf []byte
	return drive(budget, 100, nil, func(int) error {
		buf = value.AppendRow(buf[:0], row)
		_, _, err := value.DecodeRow(buf)
		return err
	})
}

// driveLock times an uncontended row lock: Acquire X then Release.
func driveLock(budget time.Duration) (driven, error) {
	m := lock.NewManager(lock.Config{Timeout: time.Second, DetectDeadlocks: true})
	return drive(budget, 100, nil, func(i int) error {
		tg := lock.RowTarget("dlfm_file", int64(i))
		if err := m.Acquire(1, tg, lock.X); err != nil {
			return err
		}
		m.Release(1, tg)
		return nil
	})
}

// driveWAL times Append of a row-insert record and Sync after one append,
// on the workload's log kind: a file under dataDir, or the in-memory log.
func driveWAL(budget time.Duration, dataDir string) (appendD, syncD driven, err error) {
	path := ""
	if dataDir != "" {
		path = filepath.Join(dataDir, "drive.wal")
	}
	l, err := wal.Open(path, 0)
	if err != nil {
		return appendD, syncD, err
	}
	defer l.Close()
	rec := func(i int) wal.Record {
		return wal.Record{Txn: int64(i), Type: wal.RecInsert, Table: "dlfm_file", RID: int64(i), After: fileRow(i)}
	}
	appendD, err = drive(budget, 100, nil, func(i int) error {
		_, err := l.Append(rec(i))
		return err
	})
	if err != nil {
		return appendD, syncD, err
	}
	syncD, err = drive(budget, 1,
		func(i int) error { _, err := l.Append(rec(i)); return err },
		func(int) error { return l.Sync() })
	return appendD, syncD, err
}

// driveStorage times Pool.Fetch+Unpin of a resident page and of a page the
// pool must read back in (a pool of 16 frames cycling over 256 pages never
// finds the next one resident).
func driveStorage(budget time.Duration, dataDir string) (hit, miss driven, err error) {
	pf, err := storage.OpenPageFile(filepath.Join(dataDir, "drive-pages"))
	if err != nil {
		return hit, miss, err
	}
	defer pf.Close()
	pool := storage.NewPool(pf, storage.MinPoolPages, nil)
	const pages = 256
	ids := make([]int64, pages)
	for i := range ids {
		p, err := pool.NewPage(storage.PageHeap)
		if err != nil {
			return hit, miss, err
		}
		p.InsertCell(0, value.AppendRow(nil, fileRow(i)))
		ids[i] = p.ID
		pool.Unpin(ids[i], true)
	}
	if err := pool.FlushAll(); err != nil {
		return hit, miss, err
	}
	fetch := func(id int64) error {
		if _, err := pool.Fetch(id); err != nil {
			return err
		}
		pool.Unpin(id, false)
		return nil
	}
	if err := fetch(ids[0]); err != nil {
		return hit, miss, err
	}
	if hit, err = drive(budget, 100, nil, func(int) error { return fetch(ids[0]) }); err != nil {
		return hit, miss, err
	}
	miss, err = drive(budget, 1, nil, func(i int) error { return fetch(ids[i%pages]) })
	return hit, miss, err
}

// drivePaxos times paxoscommit.Commit for a two-participant transaction
// over three in-memory acceptors, each behind its own pipe.
func drivePaxos(budget time.Duration) (driven, error) {
	var callers []paxoscommit.Caller
	for _, name := range []string{"acc1", "acc2", "acc3"} {
		acc, err := paxoscommit.NewAcceptor(name, "")
		if err != nil {
			return driven{}, err
		}
		defer acc.Close()
		c := rpc.LocalPair(acc)
		defer c.Close()
		callers = append(callers, c)
	}
	parts := []string{"fs1", "fs2"}
	return drive(budget, 1, nil, func(i int) error {
		if err := paxoscommit.Commit(callers, int64(i+1), parts); err != nil {
			return err
		}
		paxoscommit.Forget(callers, int64(i+1))
		return nil
	})
}

// driveRoute times routing a write on a three-member placement map:
// WriteOwner plus releasing its slot pin.
func driveRoute(budget time.Duration) (driven, error) {
	m, err := cluster.New("dlfs", cluster.Config{})
	if err != nil {
		return driven{}, err
	}
	for _, s := range []string{"fs1", "fs2", "fs3"} {
		if _, err := m.Join(s); err != nil {
			return driven{}, err
		}
	}
	paths := make([]string, 1024)
	for i := range paths {
		paths[i] = fmt.Sprintf("/w/c0/f%08d", i)
	}
	return drive(budget, 100, nil, func(i int) error {
		_, release, err := m.WriteOwner(paths[i%len(paths)])
		if err != nil {
			return err
		}
		release()
		return nil
	})
}

// driveObs times the program's two tracing primitives: one flat event, and
// one root span started and ended.
func driveObs(budget time.Duration) (emit, spanD driven, err error) {
	tr := obs.NewTracerDefault()
	if emit, err = drive(budget, 100, nil, func(i int) error {
		tr.Emit(int64(i), "agent", "dispatch", "LinkFile")
		return nil
	}); err != nil {
		return emit, spanD, err
	}
	spanD, err = drive(budget, 100, nil, func(i int) error {
		tr.StartRoot(int64(i+1), "host", "commit").End()
		return nil
	})
	return emit, spanD, err
}
