package main

import (
	"fmt"
	"io"
	"io/fs"
	"net"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"

	"repro/internal/engine"
	"repro/internal/rpc"
)

// installTaps re-registers every DLFM with a dialer that builds the same
// in-process pipe as the stack's own, with a tap on both ends. Acceptor
// connections stay untapped: the host shares one per acceptor between
// sessions, so their round trips cannot be told apart from outside.
func (d *deployment) installTaps() {
	for name, dl := range d.st.DLFMs {
		d.st.Host.RegisterDLFM(name, func() (*rpc.Client, error) {
			return rpc.NewClientDialer(func() (io.ReadWriteCloser, error) {
				hostSide, dlfmSide := net.Pipe()
				t := &tap{rec: d.rec, server: name, done: make(chan struct{})}
				d.tapMu.Lock()
				d.taps = append(d.taps, t)
				d.tapMu.Unlock()
				go func() {
					defer close(t.done)
					rpc.ServeConn(dlfmSide, tapAgent{Agent: dl.NewAgent(), t: t})
				}()
				return tapConn{Conn: hostSide, t: t}, nil
			})
		})
	}
}

// counters is one reading of every public counter the per-layer metrics are
// deltas of, by name. "host." and "dlfm." tell the two engines apart where a
// metric does; everything on the DLFM side is summed over the DLFMs.
type counters map[string]int64

func (d *deployment) readCounters() counters {
	hs, cs := d.st.Host.Stats(), d.st.DLFMStats()
	c := counters{
		"onephase": hs.OnePhaseCommits, "readonly_votes": hs.ReadOnlyVotes, "paxos_commits": hs.PaxosCommits,
		"links": cs.Links, "unlinks": cs.Unlinks, "prepares": cs.Prepares,
		"phase2_retries": cs.Phase2Retries, "backouts": cs.Backouts,
	}
	engines := map[string]engine.Stats{"host.": d.st.Host.Engine().Stats(), "dlfm.": d.st.EngineStats()}
	for side, es := range engines {
		c[side+"stmts"] = es.Selects + es.Inserts + es.Updates + es.Deletes
		c["rows_read"] += es.RowsRead
		c["tablescans"] += es.TableScans
		c["local_commits"] += es.Commits
		c["lock_acquires"] += es.Lock.Acquisitions
		c["lock_waits"] += es.Lock.Waits
		c["deadlocks"] += es.Lock.Deadlocks
		c["lock_timeouts"] += es.Lock.Timeouts
		c["wal_appends"] += es.Log.Appends
		c["wal_bytes"] += es.Log.Bytes
	}
	dbs := []*engine.DB{d.st.Host.Engine()}
	for _, dl := range d.st.DLFMs {
		dbs = append(dbs, dl.DB())
	}
	for _, db := range dbs {
		c["wal_syncs"] += db.WAL().Stats().Syncs
		ps := db.PoolStats()
		c["pool_hits"] += ps.Hits
		c["pool_misses"] += ps.Misses
		c["evictions"] += ps.Evictions
		c["page_reads"] += ps.Reads
		c["page_writes"] += ps.Writes
	}
	for _, a := range d.st.Acceptors {
		promises, accepts, _ := a.Stats()
		c["acceptor_calls"] += promises + accepts
		c["accepts"] += accepts
	}
	return c
}

// addDelta adds after − before to c.
func (c counters) addDelta(before, after counters) {
	for k, v := range after {
		c[k] += v - before[k]
	}
}

// runTraced produces the per-layer metrics. One set-up serves reference
// slices with recording off (throughput, allocations and the far tail,
// unperturbed) and traced slices (spans and counter deltas), half the run
// time each. Direct drives of each layer follow, and for link_insert the
// ledger.
func runTraced(def *workloadDef, seed int64, seconds float64, sc scale, dataRoot, outDir string) (*outcome, error) {
	out := &outcome{workload: def.name, seed: seed, traced: true, m: measurements{}}
	m := out.m
	for _, md := range perLayer {
		m[md.name] = measured{na: true}
	}
	d, err := setup(def, seed, sc, dataRoot, true)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer d.close()
	// Reference and traced slices alternate, so that table growth and heap
	// size weigh on both alike and their throughput ratio is the tracing.
	const slices = 4
	ref, tr, c := &passResult{}, &passResult{}, counters{}
	for k := 0; k < slices; k++ {
		traced := k%2 == 1
		before := d.readCounters()
		res := d.pass(passOpts{duration: time.Duration(seconds * float64(time.Second) / slices), traced: traced})
		if traced {
			tr.add(res)
			c.addDelta(before, d.readCounters())
		} else {
			ref.add(res)
		}
	}
	nRef, n := ref.committed(), tr.committed()
	if nRef == 0 || n == 0 {
		return nil, fmt.Errorf("no transaction committed: %v %v", ref.firstErr, tr.firstErr)
	}
	refSorted := append([]float64(nil), ref.lat...)
	sort.Float64s(refSorted)
	if highestPercentile(nRef) >= 0.999 {
		m.set("hostdb.txn_p999_ms", quantile(refSorted, 0.999), nRef)
	}
	m.set("hostdb.txn_max_ms", refSorted[nRef-1], nRef)
	m.per("hostdb.allocs_per_txn", float64(ref.mallocs), nRef)
	m.per("hostdb.alloc_kb_per_txn", float64(ref.allocBytes)/1024, nRef)
	both := &passResult{}
	both.add(ref)
	both.add(tr)
	m.set("failed_frac", float64(both.failed)/float64(both.attempted), both.attempted)
	m.set("bench.trace_overhead_frac",
		1-(float64(n)/tr.wall.Seconds())/(float64(nRef)/ref.wall.Seconds()), n)

	// Counter deltas over the traced slices, per committed transaction.
	for metric, counter := range map[string]string{
		"hostdb.onephase_per_txn": "onephase", "hostdb.readonly_votes_per_txn": "readonly_votes",
		"hostdb.paxos_commits_per_txn": "paxos_commits",
		"core.links_per_txn":           "links", "core.unlinks_per_txn": "unlinks", "core.prepares_per_txn": "prepares",
		"engine.host_stmts_per_txn": "host.stmts", "engine.dlfm_stmts_per_txn": "dlfm.stmts",
		"engine.rows_read_per_txn": "rows_read", "engine.local_commits_per_txn": "local_commits",
		"lock.acquires_per_txn": "lock_acquires",
		"wal.appends_per_txn":   "wal_appends", "wal.bytes_per_txn": "wal_bytes", "wal.syncs_per_txn": "wal_syncs",
	} {
		m.per(metric, float64(c[counter]), n)
	}
	for metric, counter := range map[string]string{
		"core.phase2_retries_per_ktxn": "phase2_retries", "core.backouts_per_ktxn": "backouts",
		"engine.tablescans_per_ktxn": "tablescans",
		"lock.waits_per_ktxn":        "lock_waits", "lock.deadlocks_per_ktxn": "deadlocks", "lock.timeouts_per_ktxn": "lock_timeouts",
	} {
		m.per(metric, 1e3*float64(c[counter]), n)
	}
	if def.paged {
		if fetches := c["pool_hits"] + c["pool_misses"]; fetches > 0 {
			m.set("storage.pool_hit_frac", float64(c["pool_hits"])/float64(fetches), int(fetches))
		}
		m.per("storage.evictions_per_txn", float64(c["evictions"]), n)
		m.per("storage.page_reads_per_txn", float64(c["page_reads"]), n)
		m.per("storage.page_writes_per_txn", float64(c["page_writes"]), n)
		if len(tr.checkpoints) > 0 {
			var ms []float64
			for _, c := range tr.checkpoints {
				ms = append(ms, c.Seconds()*1e3)
			}
			m.set("storage.checkpoint_ms", median(ms), len(ms))
		}
	}
	if def.cluster {
		m.per("paxoscommit.accepts_per_txn", float64(c["accepts"]), n)
	}

	// The program's own tracing, looked up for the last 100 transactions of
	// the traced pass (still inside the tracer's rings).
	sample := tr.txns
	if len(sample) > 100 {
		sample = sample[len(sample)-100:]
	}
	events, pspans := 0, 0
	for _, txn := range sample {
		events += len(d.st.Tracer.ByTxn(txn))
		pspans += len(d.st.Tracer.SpansByTrace(txn))
	}
	m.per("obs.events_per_txn", float64(events), len(sample))
	m.per("obs.spans_per_txn", float64(pspans), len(sample))

	spans, conns := d.collectSpans()
	d.spanMetrics(m, spans, conns, tr, c["acceptor_calls"])
	if err := writeTrace(filepath.Join(outDir, def.name+".trace.jsonl"), spans); err != nil {
		return nil, err
	}

	endState := d.verify()
	if def.paged {
		if err := d.storageAfterCrash(m); err != nil {
			endState = append(endState, err.Error())
		}
		if hit := m["storage.pool_hit_frac"]; sc.preloadDiv == 1 && (hit.na || hit.value >= 1) {
			endState = append(endState, "the pool never missed: the table no longer exceeds the program's cache")
		}
	}
	out.conclude(both, endState)
	// The stack is done; close it before the drives so its daemons do not
	// compete with them for the two cores.
	d.close()

	budget := 150 * time.Millisecond
	if sc.preloadDiv > 1 {
		budget = 5 * time.Millisecond
	}
	costs, err := directDrives(def, m, budget, dataRoot)
	if err != nil {
		return nil, fmt.Errorf("direct drive: %w", err)
	}
	if def.name == "link_insert" {
		lines, err := ledger(m, costs, budget)
		if err != nil {
			return nil, fmt.Errorf("ledger: %w", err)
		}
		out.notes = lines
	}
	return out, nil
}

// connTotals sums what the taps saw on the DLFM connections.
type connTotals struct {
	bytes   int64
	calls   int
	members map[int64]map[string]bool // txn -> DLFMs that handled a request of it
}

// collectSpans waits for the tapped connections to drain, stitches their
// round trips and handles under the clients' spans, and returns every span
// ordered by start, with the connections' totals.
func (d *deployment) collectSpans() ([]span, connTotals) {
	d.tapMu.Lock()
	taps := append([]*tap(nil), d.taps...)
	d.tapMu.Unlock()
	type interval struct{ id, start, end int64 }
	byTxn := make(map[int64][]interval)
	for _, s := range d.rec.all() {
		if strings.HasPrefix(s.Name, "hostdb.") {
			byTxn[s.Txn] = append(byTxn[s.Txn], interval{s.ID, s.Start, s.End})
		}
	}
	parentOf := func(txn, at int64) int64 {
		for _, iv := range byTxn[txn] {
			if at >= iv.start && at <= iv.end {
				return iv.id
			}
		}
		return 0
	}
	// The passes closed their sessions, so the served connections end; a
	// connection the host still holds (none is expected) is left out
	// rather than read while its agent may still append.
	timeout := time.After(5 * time.Second)
	totals := connTotals{members: make(map[int64]map[string]bool)}
	ln := d.rec.lane(1 << 16)
	for _, t := range taps {
		select {
		case <-t.done:
		case <-timeout:
			continue
		}
		t.stitch(ln, parentOf)
		totals.bytes += t.bytes
		totals.calls += len(t.handles)
		for _, h := range t.handles {
			if totals.members[h.Txn] == nil {
				totals.members[h.Txn] = make(map[string]bool)
			}
			totals.members[h.Txn][t.server] = true
		}
	}
	spans := d.rec.all()
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	return spans, totals
}

// spanMetrics derives the span-based metrics of the traced slices.
func (d *deployment) spanMetrics(m measurements, spans []span, conns connTotals, tr *passResult, acceptorCalls int64) {
	n := tr.committed()
	committed := make(map[int64]bool, n)
	for _, txn := range tr.txns {
		committed[txn] = true
	}
	byName := make(map[string][]float64)
	for _, s := range spans {
		if committed[s.Txn] && (strings.HasPrefix(s.Name, "hostdb.") || strings.HasPrefix(s.Name, "bench.txn.")) {
			byName[s.Name] = append(byName[s.Name], float64(s.End-s.Start)/1e3)
		}
	}
	for span, metric := range map[string]string{
		"hostdb.exec": "hostdb.exec_us", "hostdb.query": "hostdb.query_us", "hostdb.commit": "hostdb.commit_us",
		"bench.txn.insert": "hostdb.insert_txn_us", "bench.txn.update": "hostdb.update_txn_us",
		"bench.txn.delete": "hostdb.delete_txn_us", "bench.txn.read": "hostdb.read_txn_us",
	} {
		if v := byName[span]; len(v) > 0 {
			m.set(metric, median(v), len(v))
		}
	}
	self := selfByLayer(spans)
	m.per("hostdb.self_us_per_txn", float64(self["hostdb"])/1e3, n)
	m.per("rpc.self_us_per_txn", float64(self["rpc"])/1e3, n)
	m.per("core.self_us_per_txn", float64(self["core"])/1e3, n)
	// Requests and replies on DLFM connections plus those to acceptors
	// (counted by the acceptors themselves); bytes on DLFM connections only.
	m.per("rpc.msgs_per_txn", 2*float64(int64(conns.calls)+acceptorCalls), n)
	m.per("rpc.bytes_per_txn", float64(conns.bytes), n)
	if d.def.cluster {
		total := 0
		for txn, servers := range conns.members {
			if committed[txn] {
				total += len(servers)
			}
		}
		m.per("cluster.members_per_txn", float64(total), n)
	}
}

// storageAfterCrash checkpoints, sizes the data directory against the rows
// it holds, then commits a short tail, crashes every engine and reads how
// many log records restart had to replay.
func (d *deployment) storageAfterCrash(m measurements) error {
	if err := d.checkpoint(); err != nil {
		return fmt.Errorf("checkpoint: %w", err)
	}
	var bytes int64
	err := filepath.WalkDir(d.dataDir, func(_ string, e fs.DirEntry, err error) error {
		if err != nil || e.IsDir() {
			return err
		}
		info, err := e.Info()
		if err == nil && !strings.HasSuffix(e.Name(), ".wal") {
			bytes += info.Size()
		}
		return err
	})
	if err != nil {
		return fmt.Errorf("size data directory: %w", err)
	}
	rows := 0
	for _, g := range d.gens {
		rows += len(g.cur)
	}
	m.per("storage.disk_bytes_per_row", float64(bytes), rows)
	if tail := d.pass(passOpts{perClient: 50}); tail.failed > 0 {
		return fmt.Errorf("tail before crash: %v", tail.firstErr)
	}
	if _, err := d.recoverOnce(1); err != nil {
		return err
	}
	replayed := d.st.Host.Engine().LastRecovery().Replayed
	for _, dl := range d.st.DLFMs {
		replayed += dl.DB().LastRecovery().Replayed
	}
	m.set("storage.replayed_records", float64(replayed), 1)
	if bad := d.verify(); len(bad) > 0 {
		return fmt.Errorf("after recovery: %s", bad[0])
	}
	return nil
}

// directDrives runs the direct drive of every layer that does work on the
// workload and records the unit costs.
func directDrives(def *workloadDef, m measurements, budget time.Duration, dataRoot string) (engineCosts, error) {
	var costs engineCosts
	dataDir := ""
	if def.paged {
		dir, err := os.MkdirTemp(dataRoot, "drive-")
		if err != nil {
			return costs, err
		}
		defer os.RemoveAll(dir)
		dataDir = dir
	}
	us := func(name string, d driven) { m.set(name, d.us(), d.n) }
	ns := func(name string, d driven) { m.set(name, d.ns, d.n) }

	r, err := driveRPC(budget)
	if err != nil {
		return costs, err
	}
	us("rpc.roundtrip_us", r)
	m.set("rpc.allocs_per_call", r.allocs, r.n)

	link, unlink, err := driveCore(budget, dataDir)
	if err != nil {
		return costs, err
	}
	us("core.link_txn_us", link)
	us("core.unlink_txn_us", unlink)
	m.set("core.allocs_per_link_txn", link.allocs, link.n)

	if costs, err = driveEngine(budget, dataDir); err != nil {
		return costs, err
	}
	us("engine.insert_us", costs.insert)
	us("engine.lookup_us", costs.lookup)
	us("engine.update_us", costs.update)
	us("engine.delete_us", costs.del)

	p, err := driveParse(budget, def.mix)
	if err != nil {
		return costs, err
	}
	us("sql.parse_us", p)
	c, err := driveCodec(budget)
	if err != nil {
		return costs, err
	}
	ns("value.row_codec_ns", c)
	l, err := driveLock(budget)
	if err != nil {
		return costs, err
	}
	ns("lock.acquire_release_ns", l)
	wa, ws, err := driveWAL(budget, dataDir)
	if err != nil {
		return costs, err
	}
	ns("wal.append_ns", wa)
	us("wal.sync_us", ws)
	if def.paged {
		hit, miss, err := driveStorage(budget, dataDir)
		if err != nil {
			return costs, err
		}
		ns("storage.fetch_hit_ns", hit)
		us("storage.fetch_miss_us", miss)
	}
	if def.cluster {
		pc, err := drivePaxos(budget)
		if err != nil {
			return costs, err
		}
		us("paxoscommit.commit_us", pc)
		rt, err := driveRoute(budget)
		if err != nil {
			return costs, err
		}
		ns("cluster.route_ns", rt)
	}
	emit, sp, err := driveObs(budget)
	if err != nil {
		return costs, err
	}
	ns("obs.emit_ns", emit)
	ns("obs.span_ns", sp)
	return costs, nil
}
