package fleet

import (
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// newAdminServer serves one member's admin surface over real HTTP — the
// scrape target HTTPSource was built for.
func newAdminServer(t *testing.T, reg *obs.Registry, tr *obs.Tracer, edges func() []obs.WaitEdge) *httptest.Server {
	t.Helper()
	adm := &obs.Admin{Registries: []*obs.Registry{reg}, Tracer: tr, WaitEdges: edges}
	srv := httptest.NewServer(adm.Handler())
	t.Cleanup(srv.Close)
	return srv
}

// TestHTTPSourceScrape: the full HTTP round trip — registry → WriteProm →
// scrape → ParsePromText, plus spans and wait edges over JSON — matches
// direct local access.
func TestHTTPSourceScrape(t *testing.T) {
	reg := obs.New().Label("server", "fs1")
	reg.Counter("engine_commits_total").Add(17)
	reg.Histogram("wal_sync_seconds").Observe(3 * time.Millisecond)
	tr := obs.NewTracerCfg(obs.TracerConfig{SampleRate: 1})
	root := tr.StartRoot(5, "core", "commit")
	tr.StartSpan(root.Ctx(), "db", "wal_fsync").End()
	root.End()
	edges := func() []obs.WaitEdge {
		return []obs.WaitEdge{{WaiterTxn: 1, HolderTxn: 2, WaiterTrace: 10, HolderTrace: 20}}
	}
	srv := newAdminServer(t, reg, tr, edges)

	src := NewHTTPSource("fs1", srv.URL, time.Second)
	snap, err := src.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if snap.Counters["engine_commits_total"] != 17 {
		t.Fatalf("scraped counter = %d, want 17", snap.Counters["engine_commits_total"])
	}
	if h := snap.Hists["wal_sync_seconds"]; h.Count != 1 {
		t.Fatalf("scraped histogram = %+v, want count 1", h)
	}
	spans, err := src.Spans(5)
	if err != nil {
		t.Fatal(err)
	}
	if len(spans) != 2 {
		t.Fatalf("scraped %d spans, want 2", len(spans))
	}
	es, err := src.WaitEdges()
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].WaiterTrace != 10 {
		t.Fatalf("scraped edges = %+v", es)
	}
}

// TestHTTPMemberDiesMidFleet: a member's admin server going away turns its
// source into a partial-view error, and the plane keeps serving the
// remaining members. When the member restarts on the same address, the
// view is whole again without rebuilding the plane.
func TestHTTPMemberDiesMidFleet(t *testing.T) {
	regA := obs.New().Label("server", "fs1")
	regA.Counter("engine_commits_total").Add(5)
	srvA := newAdminServer(t, regA, nil, nil)

	regB := obs.New().Label("server", "fs2")
	regB.Counter("engine_commits_total").Add(9)
	adminB := (&obs.Admin{Registries: []*obs.Registry{regB}}).Handler()
	srvB := httptest.NewServer(adminB)
	addrB := srvB.Listener.Addr().String()

	p := NewPlane(
		NewHTTPSource("fs1", srvA.URL, time.Second),
		NewHTTPSource("fs2", srvB.URL, time.Second),
	)
	view := p.Federate()
	if len(view.Errors) != 0 || view.Agg.Counters["engine_commits_total"] != 14 {
		t.Fatalf("healthy fleet view wrong: agg=%v errors=%v", view.Agg.Counters, view.Errors)
	}

	// fs2 dies mid-fleet.
	srvB.Close()
	view = p.Federate()
	if view.Errors["fs2"] == "" {
		t.Fatalf("dead member not surfaced: %v", view.Errors)
	}
	if view.Agg.Counters["engine_commits_total"] != 5 {
		t.Fatalf("partial aggregate = %v, want fs1 only", view.Agg.Counters)
	}
	// Stitch and wait-graph stay partial-tolerant too.
	st := p.Stitch(1)
	if st.Errors["fs2"] == "" {
		t.Fatalf("stitch did not report dead member: %+v", st.Errors)
	}
	g := p.MergeWaitGraph()
	if g.Errors["fs2"] == "" {
		t.Fatalf("waitgraph did not report dead member: %+v", g.Errors)
	}

	// fs2 restarts on its old address; the same source heals the fleet.
	ln, err := net.Listen("tcp", addrB)
	if err != nil {
		t.Fatalf("restart fs2 on %s: %v", addrB, err)
	}
	srvB2 := &httptest.Server{Listener: ln, Config: &http.Server{Handler: adminB}}
	srvB2.Start()
	defer srvB2.Close()
	view = p.Federate()
	if len(view.Errors) != 0 || view.Agg.Counters["engine_commits_total"] != 14 {
		t.Fatalf("healed fleet view wrong: agg=%v errors=%v", view.Agg.Counters, view.Errors)
	}
}

// TestPlaneEndpointsOverHTTP: the four /cluster/* endpoints answer over a
// real listener, with the verdict flagging an unreachable member.
func TestPlaneEndpointsOverHTTP(t *testing.T) {
	reg := obs.New().Label("server", "fs1")
	reg.Counter("engine_commits_total").Add(2)
	adminSrv := newAdminServer(t, reg, nil, nil)

	deadSrv := httptest.NewServer((&obs.Admin{}).Handler())
	deadSrv.Close()

	p := NewPlane(
		NewHTTPSource("fs1", adminSrv.URL, time.Second),
		NewHTTPSource("fs2", deadSrv.URL, time.Second),
	)
	srv := httptest.NewServer(p.Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := srv.Client().Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var buf strings.Builder
		if _, err := io.Copy(&buf, resp.Body); err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: HTTP %d: %s", path, resp.StatusCode, buf.String())
		}
		return buf.String()
	}

	metrics := get("/cluster/metrics")
	for _, want := range []string{
		`fleet_member_up{member="fs1"} 1`,
		`fleet_member_up{member="fs2"} 0`,
		`engine_commits_total{member="fs1"} 2`,
	} {
		if !strings.Contains(metrics, want) {
			t.Fatalf("/cluster/metrics missing %q:\n%s", want, metrics)
		}
	}
	var h Health
	for i := 0; i < FlagAfter; i++ {
		if err := json.Unmarshal([]byte(get("/cluster/health?check=1")), &h); err != nil {
			t.Fatal(err)
		}
	}
	if len(h.Degraded) != 1 || h.Degraded[0] != "fs2" {
		t.Fatalf("/cluster/health degraded = %v, want [fs2]", h.Degraded)
	}
	if out := get("/cluster/waitgraph"); !strings.Contains(out, `"errors"`) {
		t.Fatalf("/cluster/waitgraph did not surface dead member:\n%s", out)
	}
	var st StitchedTrace
	if err := json.Unmarshal([]byte(get("/cluster/txn/1")), &st); err != nil {
		t.Fatal(err)
	}
	if st.Trace != 1 || st.Errors["fs2"] == "" {
		t.Fatalf("/cluster/txn/1 = %+v, want trace 1 with fs2 error", st)
	}
}
