package fleet

import (
	"bytes"
	"encoding/json"
	"errors"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
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
	view := NewPlane(healthy, dead).Federate()

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
	if err := obs.WritePromText(&buf, view.series()...); err != nil {
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
	view := NewPlane(a, b).Federate()
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
	st := NewPlane(host, fs1).Stitch(42)

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

	st := NewPlane(
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
	st := NewPlane(&stubSource{name: "host", spans: spans}).Stitch(trace)
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
	g := NewPlane(host, fs1).MergeWaitGraph()

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

// transition is one flag or clear between two verdicts.
type transition struct {
	member   string
	degraded bool
	reason   string
}

// verdicts records a view per check over p's sources and feeds each
// (previous view, view, previous verdict) to Verdict, collecting the
// flag/clear transitions between consecutive verdicts.
type verdicts struct {
	p           *Plane
	prev        FederatedView
	last        Health
	transitions []transition
}

func newVerdicts(sources ...Source) *verdicts {
	p := NewPlane(sources...)
	return &verdicts{p: p, prev: p.Federate()}
}

func (v *verdicts) check(t *testing.T) Health {
	t.Helper()
	cur := v.p.Federate()
	h := Verdict(v.prev, cur, v.last)
	if !h.At.Equal(cur.At) {
		t.Fatalf("verdict At %v, want its view's %v: Verdict reads no clock", h.At, cur.At)
	}
	was := map[string]bool{}
	for _, n := range v.last.Degraded {
		was[n] = true
	}
	for _, m := range h.Members {
		if m.Degraded != was[m.Member] {
			v.transitions = append(v.transitions, transition{m.Member, m.Degraded, strings.Join(m.Reasons, "; ")})
		}
	}
	v.prev, v.last = cur, h
	return h
}

// TestWatchdogDriftHysteresis: a member whose fsync latency drifts 20x above
// the fleet median is flagged — after FlagAfter consecutive bad verdicts,
// not the first — and cleared again after clearAfter good ones, with
// exactly one flag and one clear between the recorded verdicts.
func TestWatchdogDriftHysteresis(t *testing.T) {
	m1, m2, victim := newDriftMember("fs1"), newDriftMember("fs2"), newDriftMember("fs3")
	v := newVerdicts(m1.src, m2.src, victim.src)

	badRound := func() {
		m1.observe(MinWindowCount, 500*time.Microsecond)
		m2.observe(MinWindowCount, 500*time.Microsecond)
		victim.observe(MinWindowCount, 10*time.Millisecond)
	}
	goodRound := func() {
		m1.observe(MinWindowCount, 500*time.Microsecond)
		m2.observe(MinWindowCount, 500*time.Microsecond)
		victim.observe(MinWindowCount, 500*time.Microsecond)
	}

	for i := 1; i < FlagAfter; i++ {
		badRound()
		if h := v.check(t); len(h.Degraded) != 0 {
			t.Fatalf("flagged after %d bad verdicts, want FlagAfter=%d hysteresis: %v", i, FlagAfter, h.Degraded)
		}
	}
	badRound()
	h := v.check(t)
	if len(h.Degraded) != 1 || h.Degraded[0] != "fs3" {
		t.Fatalf("after %d bad verdicts Degraded = %v, want [fs3]", FlagAfter, h.Degraded)
	}
	if len(v.transitions) != 1 || !v.transitions[0].degraded || v.transitions[0].member != "fs3" {
		t.Fatalf("transitions = %+v, want one flag for fs3", v.transitions)
	}
	if !strings.Contains(v.transitions[0].reason, "wal_sync_seconds") {
		t.Fatalf("flag reason %q does not name the drifting series", v.transitions[0].reason)
	}

	for i := 1; i < clearAfter; i++ {
		goodRound()
		if h := v.check(t); len(h.Degraded) != 1 {
			t.Fatalf("cleared after %d good verdicts, want clearAfter=%d: %v", i, clearAfter, h.Degraded)
		}
	}
	goodRound()
	if h := v.check(t); len(h.Degraded) != 0 {
		t.Fatalf("still degraded after %d good verdicts: %v", clearAfter, h.Degraded)
	}
	if len(v.transitions) != 2 || v.transitions[1].degraded {
		t.Fatalf("transitions = %+v, want flag then clear", v.transitions)
	}
	// Healthy members never flapped.
	for _, tr := range v.transitions {
		if tr.member != "fs3" {
			t.Fatalf("healthy member %s transitioned: %+v", tr.member, v.transitions)
		}
	}
}

// TestVerdictSlowHealthySync: one slow sync on a healthy member does not
// hide a member whose every sync is 16× slower. In each recorded window
// fs1 takes one 3 ms sync among its 500 µs ones, fs2 syncs at 8 ms and fs3
// at 500 µs. Judged on each window's p99 (with 8 syncs, its slowest), fs1's
// 3 ms would be the fleet median and fs2's 8 ms would stay under 4× it.
func TestVerdictSlowHealthySync(t *testing.T) {
	fs1, fs2, fs3 := newDriftMember("fs1"), newDriftMember("fs2"), newDriftMember("fs3")
	v := newVerdicts(fs1.src, fs2.src, fs3.src)
	var h Health
	for w := 0; w < FlagAfter; w++ {
		fs1.observe(MinWindowCount-1, 500*time.Microsecond)
		fs1.observe(1, 3*time.Millisecond)
		fs2.observe(MinWindowCount, 8*time.Millisecond)
		fs3.observe(MinWindowCount, 500*time.Microsecond)
		h = v.check(t)
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != "fs2" {
		t.Fatalf("after %d windows Degraded = %v, want [fs2]; fleet median %.2fms, members %+v",
			FlagAfter, h.Degraded, h.FleetMedianP50MS, h.Members)
	}
	for _, m := range h.Members {
		if m.Member == "fs2" && !strings.Contains(strings.Join(m.Reasons, " "), "wal_sync_seconds") {
			t.Fatalf("fs2 flagged for %v, want wal_sync_seconds drift", m.Reasons)
		}
	}
}

// TestWatchdogUnreachable: a member that stops answering scrapes is a
// degraded member, with the same hysteresis.
func TestWatchdogUnreachable(t *testing.T) {
	ok := &stubSource{name: "fs1", snap: obs.NewMetricsSnapshot()}
	dead := &stubSource{name: "fs2", err: errors.New("dial tcp: connection refused")}
	v := newVerdicts(ok, dead)
	var h Health
	for i := 0; i < FlagAfter; i++ {
		h = v.check(t)
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != "fs2" {
		t.Fatalf("Degraded = %v, want [fs2]", h.Degraded)
	}
	var fs2 MemberHealth
	for _, m := range h.Members {
		if m.Member == "fs2" {
			fs2 = m
		}
	}
	if fs2.ScrapeError == "" || len(fs2.Reasons) == 0 || !strings.Contains(fs2.Reasons[0], "unreachable") {
		t.Fatalf("unreachable member health = %+v", fs2)
	}

	// The member comes back: the flag clears after clearAfter good verdicts.
	dead.err = nil
	dead.snap = obs.NewMetricsSnapshot()
	for i := 0; i < clearAfter; i++ {
		h = v.check(t)
	}
	if len(h.Degraded) != 0 {
		t.Fatalf("recovered member still degraded: %v", h.Degraded)
	}
}

// TestWatchdogGaugePressure: the direct gauge thresholds (WAL queue depth
// here) flag without any histogram traffic.
func TestWatchdogGaugePressure(t *testing.T) {
	snap := obs.NewMetricsSnapshot()
	snap.Gauges["wal_group_commit_queue"] = 64
	hot := &stubSource{name: "fs1", snap: snap}
	cool := &stubSource{name: "fs2", snap: obs.NewMetricsSnapshot()}
	v := newVerdicts(hot, cool)
	var h Health
	for i := 0; i < FlagAfter; i++ {
		h = v.check(t)
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != "fs1" {
		t.Fatalf("Degraded = %v, want [fs1]", h.Degraded)
	}
}

// blockingSource is a member whose scrape hangs, once blocked, until
// release is closed; entered is signalled when a scrape starts hanging.
type blockingSource struct {
	*stubSource
	blocked atomic.Bool
	entered chan struct{}
	release chan struct{}
}

func (s *blockingSource) Metrics() (obs.MetricsSnapshot, error) {
	if s.blocked.Load() {
		s.entered <- struct{}{}
		<-s.release
	}
	return s.stubSource.Metrics()
}

// TestHealthAnswersDuringSlowScrape: /cluster/health serves the last
// verdict at once while a check waits on a member's scrape, so one hung
// member cannot blank the fleet's health view.
func TestHealthAnswersDuringSlowScrape(t *testing.T) {
	slow := &blockingSource{
		stubSource: &stubSource{name: "fs1", snap: obs.NewMetricsSnapshot()},
		entered:    make(chan struct{}),
		release:    make(chan struct{}),
	}
	p := NewPlane(slow)
	first := p.Check()
	slow.blocked.Store(true)
	checked := make(chan struct{})
	go func() {
		defer close(checked)
		p.Check()
	}()
	defer func() { close(slow.release); <-checked }()
	<-slow.entered

	served := make(chan *httptest.ResponseRecorder, 1)
	go func() {
		rec := httptest.NewRecorder()
		p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/health", nil))
		served <- rec
	}()
	select {
	case rec := <-served:
		var h Health
		if err := json.Unmarshal(rec.Body.Bytes(), &h); err != nil {
			t.Fatalf("/cluster/health: %v: %s", err, rec.Body.String())
		}
		if !h.At.Equal(first.At) {
			t.Fatalf("/cluster/health served the verdict of %v, want the last finished one of %v", h.At, first.At)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("/cluster/health waited on a scrape in flight")
	}
}

// TestPlaneRegistryNames: /cluster/metrics carries the plane's own
// health_degraded_members gauge and the per-member fleet_member_up
// gauges, and none of the deleted fleet_*/health_* series.
func TestPlaneRegistryNames(t *testing.T) {
	p := NewPlane(&stubSource{name: "fs1", snap: obs.NewMetricsSnapshot()})
	p.Check()
	rec := httptest.NewRecorder()
	p.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/cluster/metrics", nil))
	text := rec.Body.String()
	for _, want := range []string{
		`health_degraded_members{plane="fleet"} 0`,
		`fleet_member_up{member="fs1"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/cluster/metrics missing %s:\n%s", want, text)
		}
	}
	for _, gone := range []string{
		"fleet_members", "fleet_scrapes_total", "fleet_scrape_errors_total",
		"health_checks_total", "health_flags_total", "health_clears_total",
		"fleet_slo_burn_rate",
	} {
		if strings.Contains(text, gone) {
			t.Fatalf("/cluster/metrics exposes deleted %s:\n%s", gone, text)
		}
	}
}

// TestCollectorConcurrency: registry writes race federation, stitching,
// wait-graph merges and health checks. Run with -race this is the
// memory-safety net for the scrape path.
func TestCollectorConcurrency(t *testing.T) {
	reg := obs.New().Label("server", "fs1")
	tr := obs.NewTracerCfg(obs.TracerConfig{SampleRate: 1})
	edges := func() []obs.WaitEdge {
		return []obs.WaitEdge{{WaiterTxn: 1, HolderTxn: 2, WaiterTrace: 1, HolderTrace: 2}}
	}
	p := NewPlane(
		NewLocalSource("fs1", tr, edges, reg),
		&stubSource{name: "fs2", err: errors.New("restarting")},
	)

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { // registry writer
		defer wg.Done()
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
	go func() { // a second reader checking health concurrently
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			p.Check()
		}
	}()

	deadline := time.Now().Add(300 * time.Millisecond)
	for time.Now().Before(deadline) {
		view := p.Federate()
		if _, ok := view.Members["fs1"]; !ok {
			t.Fatal("stable member vanished from view")
		}
		p.Stitch(int64(1))
		p.MergeWaitGraph()
		p.Check()
	}
	close(done)
	wg.Wait()

	view := p.Federate()
	if view.Agg.Counters["engine_commits_total"] == 0 {
		t.Fatal("no counters federated")
	}
}
