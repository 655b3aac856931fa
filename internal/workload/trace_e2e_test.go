package workload

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/fleet"
	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestCommitSpanTree commits a two-participant transaction with the
// sequential pipeline (CommitFanout=1, so per-participant spans do not
// overlap and the attribution sum property holds exactly) and asserts the
// full causal tree: root host commit, phase-1/phase-2 RPC spans per
// participant, agent dispatch spans on the far side of the wire, and a WAL
// fsync span from each DLFM's prepare.
func TestCommitSpanTree(t *testing.T) {
	st := testStack(t, func(c *StackConfig) {
		c.Servers = []string{"fs1", "fs2"}
		c.MutateHost = func(h *hostdb.Config) { h.CommitFanout = 1 }
	})
	if err := st.Host.CreateTable(
		`CREATE TABLE docs (id BIGINT, d1 VARCHAR, d2 VARCHAR)`,
		hostdb.DatalinkCol{Name: "d1"}, hostdb.DatalinkCol{Name: "d2"},
	); err != nil {
		t.Fatal(err)
	}
	for _, fs := range []string{"fs1", "fs2"} {
		if err := st.FS[fs].Create("/data/a", "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO docs (id, d1, d2) VALUES (?, ?, ?)`,
		value.Int(1), value.Str(hostdb.URL("fs1", "/data/a")), value.Str(hostdb.URL("fs2", "/data/a"))); err != nil {
		t.Fatal(err)
	}
	txn := s.TxnID()
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	spans := st.Tracer.SpansByTrace(txn)
	if len(spans) == 0 {
		t.Fatal("commit produced no spans")
	}
	count := map[string]int{}
	var root obs.Span
	for _, sp := range spans {
		count[sp.Op]++
		if sp.Root {
			root = sp
		}
	}
	if root.ID == 0 || root.Op != "commit" || root.Comp != "host" {
		t.Fatalf("no host/commit root span in:\n%s", strings.Join(obs.RenderTree(spans), "\n"))
	}
	want := map[string]int{
		"phase1":         1,
		"phase2":         1,
		"rpc:Prepare":    2, // one per participant
		"rpc:Commit":     2,
		"handle:Prepare": 2, // agent dispatch, carried across the wire
		"handle:Commit":  2,
	}
	for op, n := range want {
		if count[op] != n {
			t.Fatalf("span op %q count = %d, want %d; tree:\n%s",
				op, count[op], n, strings.Join(obs.RenderTree(spans), "\n"))
		}
	}
	// Each DLFM prepare hardens with an fsync; the span carries the server
	// prefix from the stack's Named tracer.
	fsyncs := 0
	for _, sp := range spans {
		if sp.Op == "wal_fsync" && strings.HasPrefix(sp.Comp, "fs") {
			fsyncs++
		}
	}
	if fsyncs < 2 {
		t.Fatalf("want >= 2 DLFM wal_fsync spans, got %d:\n%s",
			fsyncs, strings.Join(obs.RenderTree(spans), "\n"))
	}

	// Attribution: with the sequential fan-out, self times telescope, so
	// buckets + other must reconstruct the root duration within 10%.
	a := st.Tracer.Attribution(txn)
	if a.RootNS != root.DurNS || a.RootNS <= 0 {
		t.Fatalf("attribution root %d != span root %d", a.RootNS, root.DurNS)
	}
	var sum int64
	for _, ns := range a.Buckets {
		sum += ns
	}
	total := sum + a.OtherNS
	if diff := total - a.RootNS; diff < -a.RootNS/10 || diff > a.RootNS/10 {
		t.Fatalf("buckets(%d) + other(%d) = %d, not within 10%% of root %d; %v",
			sum, a.OtherNS, total, a.RootNS, a.Buckets)
	}
	for _, b := range []string{"phase1", "phase2", "rpc"} {
		if a.Buckets[b] <= 0 {
			t.Fatalf("bucket %q empty: %v", b, a.Buckets)
		}
	}
}

// TestLockTimeoutFlightRecorder starves a lock wait deterministically (two
// host transactions updating the same row, 300 ms timeout) and asserts the
// victim leaves a flight-recorder entry carrying its wait-for edge and its
// span tree, retrievable through /debug/waitgraph.
func TestLockTimeoutFlightRecorder(t *testing.T) {
	st := testStack(t, func(c *StackConfig) {
		c.MutateHost = func(h *hostdb.Config) { h.DB.LockTimeout = 300 * time.Millisecond }
	})
	if err := st.Host.CreateTable(`CREATE TABLE acct (id BIGINT, v BIGINT)`); err != nil {
		t.Fatal(err)
	}
	seed := st.Host.Session()
	if _, err := seed.Exec(`INSERT INTO acct (id, v) VALUES (?, ?)`, value.Int(1), value.Int(0)); err != nil {
		t.Fatal(err)
	}
	if err := seed.Commit(); err != nil {
		t.Fatal(err)
	}
	seed.Close()

	holder := st.Host.Session()
	defer holder.Close()
	if _, err := holder.Exec(`UPDATE acct SET v = ? WHERE id = ?`, value.Int(1), value.Int(1)); err != nil {
		t.Fatal(err)
	}

	victim := st.Host.Session()
	defer victim.Close()
	_, err := victim.Exec(`UPDATE acct SET v = ? WHERE id = ?`, value.Int(2), value.Int(1))
	if err == nil {
		t.Fatal("second updater should have timed out")
	}
	victimTxn := victim.TxnID()
	victim.Rollback()
	if err := holder.Commit(); err != nil {
		t.Fatal(err)
	}

	entries := st.Flight.Entries()
	if len(entries) == 0 {
		t.Fatal("no flight-recorder entry for the timeout victim")
	}
	e := entries[len(entries)-1]
	if e.Kind != "timeout" {
		t.Fatalf("entry kind = %q, want timeout", e.Kind)
	}
	if e.Trace != victimTxn {
		t.Fatalf("entry trace = %d, want victim txn %d", e.Trace, victimTxn)
	}
	if len(e.WaitsFor[e.Victim]) == 0 {
		t.Fatalf("victim's wait-for edge missing: %+v", e.WaitsFor)
	}
	var sawWait bool
	for _, sp := range e.Spans {
		if sp.Op == "lock_wait" {
			sawWait = true
			for _, at := range sp.Attrs {
				if at.K == "outcome" && at.V != "timeout" {
					t.Fatalf("lock_wait outcome = %q", at.V)
				}
			}
		}
	}
	if !sawWait {
		t.Fatalf("victim span tree has no lock_wait span:\n%s",
			strings.Join(obs.RenderTree(e.Spans), "\n"))
	}

	// The same capture must surface through the admin endpoint.
	srv := httptest.NewServer(st.Admin().Handler())
	defer srv.Close()
	var payload struct {
		History []obs.FlightEntry `json:"history"`
	}
	getJSON(t, srv.URL+"/debug/waitgraph", &payload)
	if len(payload.History) == 0 {
		t.Fatal("/debug/waitgraph history empty")
	}
	found := false
	for _, h := range payload.History {
		if h.Kind == "timeout" && h.Victim == e.Victim {
			found = true
		}
	}
	if !found {
		t.Fatalf("timeout victim %d not in /debug/waitgraph history", e.Victim)
	}
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET %s: %s", url, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// TestAdminEndpointsUnderChaos hammers the three debug endpoints while a
// chaos soak (kills + RPC drops) runs, under -race. Every /debug/txn/<id>
// response must be internally consistent — all spans belong to the queried
// trace — and payload sizes stay bounded by the configured rings.
func TestAdminEndpointsUnderChaos(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak")
	}
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	srv := httptest.NewServer(st.Admin().Handler())
	defer srv.Close()

	done := make(chan struct{})
	var chaosErr error
	go func() {
		defer close(done)
		_, chaosErr = RunChaos(st, ChaosConfig{
			Clients:      8,
			Duration:     2 * time.Second,
			Seed:         3,
			KillInterval: 500 * time.Millisecond,
			DownTime:     100 * time.Millisecond,
			DropInterval: 300 * time.Millisecond,
		})
	}()

	var wg sync.WaitGroup
	for w := 0; w < 3; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			txn := int64(1)
			for {
				select {
				case <-done:
					return
				default:
				}
				switch w {
				case 0: // span trees: spans must all belong to the queried trace
					var payload struct {
						Txn   int64      `json:"txn"`
						Spans []obs.Span `json:"spans"`
					}
					getJSON(t, fmt.Sprintf("%s/debug/txn/%d", srv.URL, txn), &payload)
					for _, sp := range payload.Spans {
						if sp.Trace != txn {
							t.Errorf("torn span tree: queried txn %d, span trace %d", txn, sp.Trace)
							return
						}
					}
					txn++
				case 1: // slow log stays within SlowKeep
					var entries []obs.SlowEntry
					getJSON(t, srv.URL+"/debug/slow", &entries)
					if len(entries) > obs.DefaultSlowKeep {
						t.Errorf("slow log overflow: %d > %d", len(entries), obs.DefaultSlowKeep)
						return
					}
				case 2: // waitgraph history stays within the flight ring
					var payload struct {
						History []obs.FlightEntry `json:"history"`
					}
					getJSON(t, srv.URL+"/debug/waitgraph", &payload)
					if len(payload.History) > obs.DefaultFlightCapacity {
						t.Errorf("flight history overflow: %d", len(payload.History))
						return
					}
				}
			}
		}(w)
	}
	<-done
	wg.Wait()
	if chaosErr != nil {
		t.Fatalf("chaos soak failed: %v", chaosErr)
	}
}

// TestMetricsGoldenList pins the exposition names this repo's dashboards and
// earlier PRs depend on: a rename that silently drops one of these from
// /metrics should fail here, not in a dashboard.
func TestMetricsGoldenList(t *testing.T) {
	st := testStack(t, func(c *StackConfig) {
		c.Servers = []string{"fs1"}
		c.Standbys = true
		// Cluster metrics only register when the host owns a placement map,
		// so the audit runs against a (1-member) clustered stack.
		c.Cluster = true
		// storage_* metrics only register when databases are page-backed.
		c.DataDir = t.TempDir()
	})
	r, err := NewRunner(st, Config{
		Clients: 4, OpsPerClient: 10, Mix: DefaultMix(), PreloadRows: 10, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Run(); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(st.Admin().Handler())
	defer srv.Close()
	resp, err := http.Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	exposition := string(body)

	golden := []string{
		// PR 2-4 names other tooling scrapes (audited in DESIGN.md §8).
		"dlfm_phase2_giveups_total",
		"repl_records_total",
		"repl_txns_applied_total",
		"repl_batches_total",
		"rpc_inflight",
		"rpc_call_timeouts_total",
		"lock_shard_contention",
		"host_prepare_fanout",
		"host_commit_seconds",
		"wal_sync_seconds",
		"lock_wait_seconds",
		// This PR's cluster placement/migration names (DESIGN.md §9).
		"cluster_members",
		"cluster_table_version",
		"cluster_moves_inflight",
		"cluster_routes_total",
		"cluster_fence_waits_total",
		"cluster_fence_timeouts_total",
		"cluster_moves_total",
		"cluster_move_failures_total",
		"cluster_migrated_files_total",
		"cluster_move_seconds",
		"dlfm_migrated_in_total",
		"dlfm_migrated_out_total",
		// This PR's page-store and group-commit names (DESIGN.md §11).
		"storage_pool_hits_total",
		"storage_pool_misses_total",
		"storage_pool_evictions_total",
		"storage_page_reads_total",
		"storage_page_writes_total",
		"storage_pool_pages",
		"storage_checkpoints_total",
		"wal_group_commit_batches_total",
		"wal_group_commit_batch_commits_total",
		// This PR's admission-control names (DESIGN.md §12).
		"host_admission_shed_total",
		"host_admission_delayed_total",
		"host_admission_lock_pressure",
		"host_admission_wal_queue",
		// This PR's watchdog input gauges (DESIGN.md §13): the member-side
		// signals the fleet health monitor scores.
		"engine_lock_pressure",
		"wal_group_commit_queue",
		"cluster_degraded_members",
		"repl_lag_records",
	}
	var missing []string
	for _, name := range golden {
		if !strings.Contains(exposition, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("golden metrics missing from /metrics: %v", missing)
	}
	// Attribution is folded on request (/debug/txn/<id>), never per commit:
	// the always-on export must not come back.
	if strings.Contains(exposition, "host_attrib_") {
		t.Fatal("/metrics exposes host_attrib_* again")
	}
	// Presumed commit was a knob nothing set; its counter went with it.
	if strings.Contains(exposition, "host_outcome_gc_total") {
		t.Fatal("/metrics exposes host_outcome_gc_total again")
	}

	// The fleet plane's own exposition (DESIGN.md §13): aggregate series
	// plus member-labelled copies and the plane's fleet_*/health_* state.
	fleetSrv := httptest.NewServer(st.NewFleetPlane(fleet.HealthConfig{}).Handler())
	defer fleetSrv.Close()
	resp, err = http.Get(fleetSrv.URL + "/cluster/health?check=1")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) //nolint:errcheck
	resp.Body.Close()
	resp, err = http.Get(fleetSrv.URL + "/cluster/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	fleetExpo := string(body)
	fleetGolden := []string{
		"fleet_members",
		"fleet_scrapes_total",
		"fleet_scrape_errors_total",
		"fleet_slo_burn_rate",
		`fleet_member_up{member="host"} 1`,
		`fleet_member_up{member="fs1"} 1`,
		"health_checks_total",
		"health_flags_total",
		"health_clears_total",
		"health_degraded_members",
		// Aggregate + member-labelled copies of a member series.
		"\nengine_commits_total ",
		`engine_commits_total{member="fs1"}`,
	}
	missing = missing[:0]
	for _, name := range fleetGolden {
		if !strings.Contains(fleetExpo, name) {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("fleet golden metrics missing from /cluster/metrics: %v", missing)
	}
}
