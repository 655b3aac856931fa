package fleet

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// stubSource is a fully controllable member: fixed snapshot, spans, and
// wait edges, or a scrape error.
type stubSource struct {
	name  string
	snap  obs.MetricsSnapshot
	spans []obs.Span
	edges []obs.WaitEdge
	err   error
}

func (s *stubSource) Name() string { return s.name }
func (s *stubSource) Metrics() (obs.MetricsSnapshot, error) {
	if s.err != nil {
		return obs.MetricsSnapshot{}, s.err
	}
	return s.snap, nil
}
func (s *stubSource) Spans(trace int64) ([]obs.Span, error) {
	if s.err != nil {
		return nil, s.err
	}
	var out []obs.Span
	for _, sp := range s.spans {
		if sp.Trace == trace {
			out = append(out, sp)
		}
	}
	return out, nil
}
func (s *stubSource) WaitEdges() ([]obs.WaitEdge, error) {
	if s.err != nil {
		return nil, s.err
	}
	return s.edges, nil
}

func snapWith(counters map[string]int64) obs.MetricsSnapshot {
	s := obs.NewMetricsSnapshot()
	for n, v := range counters {
		s.Counters[n] = v
	}
	return s
}

// TestFederatePartial: a member that errors mid-scrape degrades the view
// to the reachable members — it must not blank the fleet.
func TestFederatePartial(t *testing.T) {
	healthy := &stubSource{name: "fs1", snap: snapWith(map[string]int64{"engine_commits_total": 10})}
	dead := &stubSource{name: "fs2", err: errors.New("connection refused")}
	c := NewCollector(healthy, dead)
	view := c.Federate()

	if view.Agg.Counters["engine_commits_total"] != 10 {
		t.Fatalf("aggregate lost healthy member: %v", view.Agg.Counters)
	}
	if _, ok := view.Members["fs1"]; !ok {
		t.Fatal("healthy member missing from view")
	}
	if _, ok := view.Members["fs2"]; ok {
		t.Fatal("dead member should not appear in Members")
	}
	if view.Errors["fs2"] == "" {
		t.Fatalf("dead member not reported: %v", view.Errors)
	}

	var buf bytes.Buffer
	if err := view.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, line := range []string{
		`fleet_member_up{member="fs1"} 1`,
		`fleet_member_up{member="fs2"} 0`,
		`engine_commits_total{member="fs1"} 10`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("federated exposition missing %q:\n%s", line, text)
		}
	}
}

// TestFederateSumsMembers: every aggregate counter equals the sum of the
// per-member values in the same view — the federation invariant E16
// asserts end-to-end, pinned here in isolation.
func TestFederateSumsMembers(t *testing.T) {
	a := &stubSource{name: "fs1", snap: snapWith(map[string]int64{"x_total": 3, "y_total": 1})}
	b := &stubSource{name: "fs2", snap: snapWith(map[string]int64{"x_total": 4})}
	view := NewCollector(a, b).Federate()
	for name, agg := range view.Agg.Counters {
		var sum int64
		for _, m := range view.Members {
			sum += m.Counters[name]
		}
		if agg != sum {
			t.Fatalf("counter %s: agg %d != member sum %d", name, agg, sum)
		}
	}
	if view.Agg.Counters["x_total"] != 7 {
		t.Fatalf("x_total = %d, want 7", view.Agg.Counters["x_total"])
	}
}

// TestStitchSharedStore: in-stack deployments share one span store, so
// every member returns identical copies; the stitcher must deduplicate and
// credit only the fragment that actually added the spans.
func TestStitchSharedStore(t *testing.T) {
	tr := obs.NewTracerCfg(obs.TracerConfig{SampleRate: 1})
	root := tr.StartRoot(42, "hostdb", "commit")
	child := tr.StartSpan(root.Ctx(), "engine", "lock_wait")
	child.End()
	root.End()

	host := NewLocalSource("host", tr, nil)
	fs1 := NewLocalSource("fs1", tr, nil) // same store
	st := NewCollector(host, fs1).Stitch(42)

	if len(st.Spans) != 2 {
		t.Fatalf("stitched %d spans, want 2 (dedup failed): %+v", len(st.Spans), st.Spans)
	}
	if len(st.Members) != 1 || st.Members[0] != "host" {
		t.Fatalf("Members = %v, want [host] (only the first fragment adds shared spans)", st.Members)
	}
}

// TestStitchSeparateStores: multi-process members allocate span ids
// independently, so ids collide; the stitcher must remap collisions to
// fresh ids while keeping each fragment's parent edges intact.
func TestStitchSeparateStores(t *testing.T) {
	const trace = 99
	host := obs.NewTracerCfg(obs.TracerConfig{SampleRate: 1})
	hr := host.StartRoot(trace, "hostdb", "commit") // id 1 in host's store
	hc := host.StartSpan(hr.Ctx(), "hostdb", "stmt")
	hc.End()
	hr.End()

	remote := obs.NewTracerCfg(obs.TracerConfig{SampleRate: 1}).Named("fs2")
	rr := remote.StartSpanInTrace(trace, 0, "core", "commit") // id 1 again: collision
	rc := remote.StartSpan(rr.Ctx(), "db", "wal_fsync")       // id 2 again: collision
	rc.End()
	rr.End()

	st := NewCollector(
		NewLocalSource("host", host, nil),
		NewLocalSource("fs2", remote, nil),
	).Stitch(trace)

	if len(st.Spans) != 4 {
		t.Fatalf("stitched %d spans, want 4: %+v", len(st.Spans), st.Spans)
	}
	ids := map[int64]obs.Span{}
	for _, sp := range st.Spans {
		if _, dup := ids[sp.ID]; dup {
			t.Fatalf("duplicate span id %d after remap: %+v", sp.ID, st.Spans)
		}
		ids[sp.ID] = sp
	}
	// The remote fragment's parent edge must survive the remap: its fsync
	// span still hangs off its commit span.
	var remoteRoot, remoteChild obs.Span
	for _, sp := range st.Spans {
		switch sp.Comp {
		case "fs2/core":
			remoteRoot = sp
		case "fs2/db":
			remoteChild = sp
		}
	}
	if remoteRoot.ID == 0 || remoteChild.ID == 0 {
		t.Fatalf("remote spans missing: %+v", st.Spans)
	}
	if remoteChild.Parent != remoteRoot.ID {
		t.Fatalf("remap broke parent edge: child parent %d, root id %d", remoteChild.Parent, remoteRoot.ID)
	}
	if len(st.Members) != 2 {
		t.Fatalf("Members = %v, want both", st.Members)
	}
}

// TestStitchAttribution: leaf time buckets per member and the dominant
// cell names the slow member — the "which member is slow" answer.
func TestStitchAttribution(t *testing.T) {
	const trace = 7
	spans := []obs.Span{
		{Trace: trace, ID: 1, Comp: "hostdb", Op: "commit", DurNS: 100e6, Root: true},
		{Trace: trace, ID: 2, Parent: 1, Comp: "host", Op: "lock_wait", DurNS: 5e6},
		{Trace: trace, ID: 3, Parent: 1, Comp: "fs2/db", Op: "wal_fsync", DurNS: 80e6},
		{Trace: trace, ID: 4, Parent: 1, Comp: "fs1/db", Op: "wal_fsync", DurNS: 2e6},
		// A mark under a leaf span leaves it a leaf.
		{Trace: trace, ID: 5, Parent: 3, Comp: "fs2/wal", Op: "log_full", Mark: true},
	}
	st := NewCollector(&stubSource{name: "host", spans: spans}).Stitch(trace)
	if st.Dominant != "fs2/wal_fsync" {
		t.Fatalf("Dominant = %q, want fs2/wal_fsync (ByMember %v)", st.Dominant, st.ByMember)
	}
	if got := st.ByMember["fs2"]["wal_fsync"]; got != 80e6 {
		t.Fatalf("fs2 wal_fsync = %d, want 80ms", got)
	}
	if got := st.ByMember["host"]["lock_wait"]; got != 5e6 {
		t.Fatalf("host lock_wait = %d, want 5ms (unprefixed comps attribute to host)", got)
	}
}

// TestMergeWaitGraphCrossMemberCycle: a wait chain spanning two members is
// invisible to either local detector; joining edges on global trace ids
// must close it.
func TestMergeWaitGraphCrossMemberCycle(t *testing.T) {
	host := &stubSource{name: "host", edges: []obs.WaitEdge{
		// Host txn 101 waits on host txn 102 (host txn id IS the trace id).
		{WaiterTxn: 101, HolderTxn: 102, WaiterTrace: 101, HolderTrace: 102},
	}}
	fs1 := &stubSource{name: "fs1", edges: []obs.WaitEdge{
		// On fs1, local txn 7 (bound to global trace 102) waits on local
		// txn 8 (bound to trace 101) — closing the cycle across members.
		{WaiterTxn: 7, HolderTxn: 8, WaiterTrace: 102, HolderTrace: 101},
		// A purely local edge without trace bindings stays member-scoped.
		{WaiterTxn: 7, HolderTxn: 9},
	}}
	g := NewCollector(host, fs1).MergeWaitGraph()

	if len(g.Edges) != 3 {
		t.Fatalf("merged %d edges, want 3: %+v", len(g.Edges), g.Edges)
	}
	if len(g.Cycles) != 1 {
		t.Fatalf("cycles = %v, want exactly the cross-member one", g.Cycles)
	}
	want := []string{"txn:101", "txn:102"}
	if len(g.Cycles[0]) != 2 || g.Cycles[0][0] != want[0] || g.Cycles[0][1] != want[1] {
		t.Fatalf("cycle = %v, want %v", g.Cycles[0], want)
	}
	// The unbound local edge must NOT have been joined into the trace node
	// space: engine-local txn ids collide across members.
	found := false
	for _, e := range g.Edges {
		if e.Waiter == "fs1:7" && e.Holder == "fs1:9" {
			found = true
		}
	}
	if !found {
		t.Fatalf("member-scoped edge missing: %+v", g.Edges)
	}
}

// driftMember builds one member whose drift histogram we can feed per
// round, exporting a fresh snapshot each scrape like a live registry.
type driftMember struct {
	src  *stubSource
	hist *obs.Histogram
}

func newDriftMember(name string) *driftMember {
	m := &driftMember{src: &stubSource{name: name}, hist: obs.NewHistogram()}
	m.refresh()
	return m
}

func (m *driftMember) observe(n int, v time.Duration) {
	for i := 0; i < n; i++ {
		m.hist.Observe(v)
	}
	m.refresh()
}

func (m *driftMember) refresh() {
	s := obs.NewMetricsSnapshot()
	s.Hists["wal_sync_seconds"] = m.hist.Export()
	m.src.snap = s
}

// TestWatchdogDriftHysteresis: a member whose fsync p99 drifts 20x above
// the fleet median is flagged — after FlagAfter consecutive bad checks,
// not the first — and cleared again after ClearAfter good ones, with
// OnChange firing exactly on the transitions.
func TestWatchdogDriftHysteresis(t *testing.T) {
	m1, m2, victim := newDriftMember("fs1"), newDriftMember("fs2"), newDriftMember("fs3")
	c := NewCollector(m1.src, m2.src, victim.src)

	type change struct {
		member   string
		degraded bool
		reason   string
	}
	var changes []change
	w := NewWatchdog(c, HealthConfig{
		MinWindowCount: 4,
		FlagAfter:      2,
		ClearAfter:     2,
		DriftFactor:    4,
		DriftMin:       2 * time.Millisecond,
		OnChange: func(member string, degraded bool, reason string) {
			changes = append(changes, change{member, degraded, reason})
		},
	})

	badRound := func() {
		m1.observe(8, 500*time.Microsecond)
		m2.observe(8, 500*time.Microsecond)
		victim.observe(8, 10*time.Millisecond)
	}
	goodRound := func() {
		m1.observe(8, 500*time.Microsecond)
		m2.observe(8, 500*time.Microsecond)
		victim.observe(8, 500*time.Microsecond)
	}

	badRound()
	rep := w.Check()
	if len(rep.Degraded) != 0 {
		t.Fatalf("flagged after one bad check, want FlagAfter=2 hysteresis: %v", rep.Degraded)
	}
	badRound()
	rep = w.Check()
	if len(rep.Degraded) != 1 || rep.Degraded[0] != "fs3" {
		t.Fatalf("after 2 bad checks Degraded = %v, want [fs3]", rep.Degraded)
	}
	if len(changes) != 1 || !changes[0].degraded || changes[0].member != "fs3" {
		t.Fatalf("OnChange calls = %+v, want one flag for fs3", changes)
	}
	if !strings.Contains(changes[0].reason, "wal_sync_seconds") {
		t.Fatalf("flag reason %q does not name the drifting series", changes[0].reason)
	}

	goodRound()
	rep = w.Check()
	if len(rep.Degraded) != 1 {
		t.Fatalf("cleared after one good check, want ClearAfter=2: %v", rep.Degraded)
	}
	goodRound()
	rep = w.Check()
	if len(rep.Degraded) != 0 {
		t.Fatalf("still degraded after 2 good checks: %v", rep.Degraded)
	}
	if len(changes) != 2 || changes[1].degraded {
		t.Fatalf("OnChange calls = %+v, want flag then clear", changes)
	}
	// Healthy members never flapped.
	for _, ch := range changes {
		if ch.member != "fs3" {
			t.Fatalf("healthy member %s transitioned: %+v", ch.member, changes)
		}
	}
}

// TestWatchdogUnreachable: a member that stops answering scrapes is a
// degraded member, with the same hysteresis.
func TestWatchdogUnreachable(t *testing.T) {
	ok := &stubSource{name: "fs1", snap: obs.NewMetricsSnapshot()}
	dead := &stubSource{name: "fs2", err: errors.New("dial tcp: connection refused")}
	w := NewWatchdog(NewCollector(ok, dead), HealthConfig{FlagAfter: 2, ClearAfter: 2})
	w.Check()
	rep := w.Check()
	if len(rep.Degraded) != 1 || rep.Degraded[0] != "fs2" {
		t.Fatalf("Degraded = %v, want [fs2]", rep.Degraded)
	}
	var fs2 MemberHealth
	for _, m := range rep.Members {
		if m.Member == "fs2" {
			fs2 = m
		}
	}
	if fs2.ScrapeError == "" || len(fs2.Reasons) == 0 || !strings.Contains(fs2.Reasons[0], "unreachable") {
		t.Fatalf("unreachable member health = %+v", fs2)
	}

	// The member comes back: flag clears after ClearAfter good checks.
	dead.err = nil
	dead.snap = obs.NewMetricsSnapshot()
	w.Check()
	rep = w.Check()
	if len(rep.Degraded) != 0 {
		t.Fatalf("recovered member still degraded: %v", rep.Degraded)
	}
}

// TestWatchdogGaugePressure: the direct gauge thresholds (WAL queue depth
// here) flag without any histogram traffic.
func TestWatchdogGaugePressure(t *testing.T) {
	snap := obs.NewMetricsSnapshot()
	snap.Gauges["wal_group_commit_queue"] = 64
	hot := &stubSource{name: "fs1", snap: snap}
	cool := &stubSource{name: "fs2", snap: obs.NewMetricsSnapshot()}
	w := NewWatchdog(NewCollector(hot, cool), HealthConfig{WALQueueMax: 16, FlagAfter: 1})
	rep := w.Check()
	if len(rep.Degraded) != 1 || rep.Degraded[0] != "fs1" {
		t.Fatalf("Degraded = %v, want [fs1]", rep.Degraded)
	}
}

// TestWatchdogSLOBurn: the burn rate is violating-fraction / budget over
// the fleet-aggregated windowed series.
func TestWatchdogSLOBurn(t *testing.T) {
	h := obs.NewHistogram()
	for i := 0; i < 5; i++ {
		h.Observe(100 * time.Millisecond) // violations (well above target)
	}
	for i := 0; i < 5; i++ {
		h.Observe(10 * time.Microsecond)
	}
	snap := obs.NewMetricsSnapshot()
	snap.Hists["storm_txn_seconds"] = h.Export()
	src := &stubSource{name: "host", snap: snap}
	w := NewWatchdog(NewCollector(src), HealthConfig{
		SLOTarget: time.Millisecond,
		SLOBudget: 0.01,
	})
	rep := w.Check()
	if rep.SLOWindowCount != 10 || rep.SLOWindowBad != 5 {
		t.Fatalf("SLO window = %d/%d, want 5/10", rep.SLOWindowBad, rep.SLOWindowCount)
	}
	if rep.SLOBurnRate < 49 || rep.SLOBurnRate > 51 {
		t.Fatalf("burn rate = %v, want ~50 (0.5 violating / 0.01 budget)", rep.SLOBurnRate)
	}
	// Second check with no new traffic: empty window, no burn.
	rep = w.Check()
	if rep.SLOWindowCount != 0 || rep.SLOBurnRate != 0 {
		t.Fatalf("idle window SLO = %+v, want zero", rep)
	}
}

// TestPlaneRegistryNames: the plane self-instruments under fleet_* and
// health_* — the names DESIGN.md's metrics table promises.
func TestPlaneRegistryNames(t *testing.T) {
	src := &stubSource{name: "fs1", snap: obs.NewMetricsSnapshot()}
	p := NewPlane([]Source{src}, HealthConfig{})
	p.Collector.Federate()
	p.Watchdog.Check()
	var buf bytes.Buffer
	if err := p.Registry().WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, name := range []string{
		"fleet_members", "fleet_scrapes_total", "fleet_scrape_errors_total",
		"health_checks_total", "health_flags_total", "health_clears_total",
		"health_degraded_members", "fleet_slo_burn_rate",
	} {
		if !strings.Contains(text, name) {
			t.Fatalf("plane registry missing %s:\n%s", name, text)
		}
	}
}

// TestCollectorConcurrency exercises the plane under churn: registry
// writes, Add/Remove of members, federation, stitching, wait-graph merges,
// and watchdog checks all racing. Run with -race this is the memory-safety
// net for the scrape path.
func TestCollectorConcurrency(t *testing.T) {
	reg := obs.New().Label("server", "fs1")
	tr := obs.NewTracerCfg(obs.TracerConfig{SampleRate: 1})
	edges := func() []obs.WaitEdge {
		return []obs.WaitEdge{{WaiterTxn: 1, HolderTxn: 2, WaiterTrace: 1, HolderTrace: 2}}
	}
	c := NewCollector(NewLocalSource("fs1", tr, edges, reg))
	w := NewWatchdog(c, HealthConfig{FlagAfter: 1})

	done := make(chan struct{})
	go func() { // registry writer
		h := reg.Histogram("wal_sync_seconds")
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			reg.Counter("engine_commits_total").Inc()
			h.Observe(time.Duration(i%100) * time.Microsecond)
			sp := tr.StartRoot(int64(i%7+1), "core", "commit")
			tr.StartSpan(sp.Ctx(), "db", "wal_fsync").End()
			sp.End()
		}
	}()
	go func() { // membership churn: a member restarting in a loop
		for i := 0; ; i++ {
			select {
			case <-done:
				return
			default:
			}
			c.Add(&stubSource{name: "fs2", snap: obs.NewMetricsSnapshot()})
			c.Remove("fs2")
			c.Add(&stubSource{name: "fs3", err: fmt.Errorf("restarting %d", i)})
			c.Remove("fs3")
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		view := c.Federate()
		if _, ok := view.Members["fs1"]; !ok {
			t.Fatal("stable member vanished from view")
		}
		c.Stitch(int64(1))
		c.MergeWaitGraph()
		w.Check()
	}
	close(done)

	view := c.Federate()
	if view.Agg.Counters["engine_commits_total"] == 0 {
		t.Fatal("no counters federated after churn")
	}
}
