package workload

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// TestFleetSourcesShape: one source per member, host first, DLFMs sorted.
func TestFleetSourcesShape(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs2", "fs1"} })
	srcs := st.FleetSources()
	if len(srcs) != 3 {
		t.Fatalf("got %d sources, want 3", len(srcs))
	}
	names := []string{srcs[0].Name(), srcs[1].Name(), srcs[2].Name()}
	if names[0] != "host" || names[1] != "fs1" || names[2] != "fs2" {
		t.Fatalf("source order = %v, want [host fs1 fs2]", names)
	}
}

// TestFleetPlaneEndToEnd: after a real workload, the plane's federated
// totals equal the member sums, the waitgraph endpoint answers, and a
// transaction's stitched tree is non-empty.
func TestFleetPlaneEndToEnd(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	r, err := NewRunner(st, Config{Clients: 4, OpsPerClient: 15, Mix: DefaultMix(), PreloadRows: 10, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	plane := st.NewFleetPlane(fleet.HealthConfig{})
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	view := plane.Collector.Federate()
	if len(view.Errors) != 0 {
		t.Fatalf("in-process scrape errored: %v", view.Errors)
	}
	if view.Agg.Counters["engine_commits_total"] == 0 {
		t.Fatal("no commits federated after workload")
	}
	for name, agg := range view.Agg.Counters {
		var sum int64
		for _, m := range view.Members {
			sum += m.Counters[name]
		}
		if agg != sum {
			t.Fatalf("counter %s: agg %d != member sum %d", name, agg, sum)
		}
	}

	resp, err := srv.Client().Get(srv.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		`fleet_member_up{member="host"} 1`,
		`fleet_member_up{member="fs1"} 1`,
		`fleet_member_up{member="fs2"} 1`,
	} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("/cluster/metrics missing %q", want)
		}
	}

	resp, err = srv.Client().Get(srv.URL + "/cluster/waitgraph")
	if err != nil {
		t.Fatal(err)
	}
	var g fleet.WaitGraph
	err = json.NewDecoder(resp.Body).Decode(&g)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Errors) != 0 {
		t.Fatalf("waitgraph errors: %v", g.Errors)
	}

	// Stitch a traced commit: find any trace with spans via the slow/ring
	// store — every committed txn is sampled at rate 1 in tests.
	spans := st.Tracer.Spans()
	if len(spans) == 0 {
		t.Fatal("no spans recorded")
	}
	stitched := plane.Collector.Stitch(spans[len(spans)-1].Trace)
	if len(stitched.Spans) == 0 {
		t.Fatalf("stitched trace %d empty", spans[len(spans)-1].Trace)
	}
	if len(stitched.Members) == 0 {
		t.Fatal("stitched trace credits no members")
	}
}

// TestFleetPlaneUnderMemberChurn hammers the plane endpoints while the
// workload runs and a member crash-loops — the -race net for the live
// admin path: scrapes racing registry writes and member restarts must
// yield partial views, never errors or data races.
func TestFleetPlaneUnderMemberChurn(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2", "fs3"} })
	plane := st.NewFleetPlane(fleet.HealthConfig{FlagAfter: 1, ClearAfter: 1})
	srv := httptest.NewServer(plane.Handler())
	defer srv.Close()

	r, err := NewRunner(st, Config{Clients: 6, OpsPerClient: 40, Mix: DefaultMix(), PreloadRows: 10, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	done := make(chan struct{})
	wg.Add(1)
	go func() { // the workload: constant registry writes on every member
		defer wg.Done()
		r.Run() //nolint:errcheck — kills make individual op errors expected
	}()
	wg.Add(1)
	go func() { // fs3 crash-loops
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			st.Kill("fs3")
			time.Sleep(5 * time.Millisecond)
			st.Restart("fs3")
			time.Sleep(5 * time.Millisecond)
		}
	}()

	deadline := time.Now().Add(400 * time.Millisecond)
	for time.Now().Before(deadline) {
		for _, path := range []string{"/cluster/metrics", "/cluster/health?check=1", "/cluster/waitgraph"} {
			resp, err := srv.Client().Get(srv.URL + path)
			if err != nil {
				t.Fatalf("GET %s during churn: %v", path, err)
			}
			io.Copy(io.Discard, resp.Body) //nolint:errcheck
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("GET %s during churn: HTTP %d", path, resp.StatusCode)
			}
		}
	}
	close(done)
	wg.Wait()

	// After churn the in-process members all still federate.
	view := plane.Collector.Federate()
	if len(view.Errors) != 0 {
		t.Fatalf("post-churn scrape errors: %v", view.Errors)
	}
	if len(view.Members) != 4 {
		t.Fatalf("post-churn members = %d, want 4", len(view.Members))
	}
}

// TestMemberAdminIsolated: a member's admin surface exposes only its own
// registries — the property that makes per-member HTTP scraping mean
// something.
func TestMemberAdminIsolated(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	extra := obs.New().Label("proc", "bench")
	extra.Counter("storm_arrivals_total").Add(3)

	srv := httptest.NewServer(st.MemberAdmin("fs1").Handler())
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `server="fs1"`) {
		t.Fatalf("fs1 admin page missing own series:\n%s", body)
	}
	if strings.Contains(string(body), `server="fs2"`) {
		t.Fatal("fs1 admin page leaks fs2 series")
	}
	if strings.Contains(string(body), "host_commits_total") {
		t.Fatal("fs1 admin page leaks host series")
	}

	hostSrv := httptest.NewServer(st.MemberAdmin("host", extra).Handler())
	defer hostSrv.Close()
	resp, err = hostSrv.Client().Get(hostSrv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "storm_arrivals_total") {
		t.Fatal("host admin page missing extra registry")
	}

	if h := st.MemberAdmin("nope").Handler(); h == nil {
		t.Fatal("unknown member must still yield a handler")
	}
}
