package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"

	"repro/internal/workload"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		samples int
		want    float64
	}{
		{50, 0},      // 5 beyond p90
		{100, 0.9},   // exactly 10 beyond p90
		{999, 0.9},   // 9 beyond p99
		{1000, 0.99}, // exactly 10 beyond p99
		{9999, 0.99}, // 9 beyond p99.9
		{20000, 0.999},
		{100000, 0.9999},
	} {
		if got := highestPercentile(c.samples); got != c.want {
			t.Errorf("highestPercentile(%d) = %v, want %v", c.samples, got, c.want)
		}
	}
}

func TestQuantiles(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := quantile(s, 0.5); got != 5 {
		t.Errorf("quantile p50 = %v, want 5", got)
	}
	if got := quantile(s, 0.99); got != 10 {
		t.Errorf("quantile p99 = %v, want 10", got)
	}
	if got := median(s); got != 5.5 {
		t.Errorf("median = %v, want 5.5", got)
	}
	if got := bandMean(s, 0.5, 0.8); got != 7 { // samples 6, 7, 8
		t.Errorf("bandMean = %v, want 7", got)
	}
	// Python: statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25].
	if got := quartileSpread(s); math.Abs(got-1.0) > 1e-12 {
		t.Errorf("quartileSpread = %v, want 1", got)
	}
	// statistics.quantiles([10, 11, 13, 20], n=4) == [10.25, 12.0, 18.25].
	if got := quartileSpread([]float64{20, 10, 13, 11}); math.Abs(got-8.0/12) > 1e-12 {
		t.Errorf("quartileSpread = %v, want %v", got, 8.0/12)
	}
}

func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "hostdb.commit", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "rpc.call.Prepare", Start: 10, End: 30}, // parallel prepares:
		{ID: 3, Parent: 1, Name: "rpc.call.Prepare", Start: 20, End: 50}, // overlap counted once
		{ID: 4, Parent: 1, Name: "rpc.call.Commit", Start: 90, End: 120}, // overhang ignored
		{ID: 5, Parent: 3, Name: "core.handle.Prepare", Start: 25, End: 45},
	}
	self := selfTimes(spans)
	for id, want := range map[int64]int64{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], want)
		}
	}
	byLayer := selfByLayer(spans)
	if byLayer["hostdb"] != 50 || byLayer["rpc"] != 60 || byLayer["core"] != 20 {
		t.Errorf("selfByLayer = %v", byLayer)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	for _, w := range workloads {
		hash := func(seed int64, client int) uint64 {
			var o func(string) string
			if w.cluster {
				o = func(path string) string { return []string{"fs1", "fs2", "fs3"}[int(path[len(path)-1])%3] }
			}
			g := newGenerator(seed, client, clients, w.mix, w.rowsPerTxn, o)
			for i := 0; i < 100; i += w.rowsPerTxn {
				g.insert()
			}
			return streamHash(g, 2000)
		}
		if hash(1, 0) != hash(1, 0) {
			t.Errorf("%s: same seed gave two statement streams", w.name)
		}
		if hash(1, 0) == hash(2, 0) {
			t.Errorf("%s: seeds 1 and 2 gave the same statement stream", w.name)
		}
		if hash(1, 0) == hash(1, 1) {
			t.Errorf("%s: both clients got the same statement stream", w.name)
		}
	}
}

func TestGeneratorMirror(t *testing.T) {
	g := newGenerator(1, 1, clients, workload.DefaultMix(), 1, nil)
	state := map[int64]string{}
	for i := 0; i < 5000; i++ {
		switch tx := g.next(); tx.kind {
		case opInsert:
			if tx.id[0]%clients != 1 {
				t.Fatalf("client 1 generated id %d", tx.id[0])
			}
			if _, dup := state[tx.id[0]]; dup {
				t.Fatalf("insert of live id %d", tx.id[0])
			}
			state[tx.id[0]] = tx.path[0]
		case opUpdate:
			if _, ok := state[tx.id[0]]; !ok {
				t.Fatalf("update of absent id %d", tx.id[0])
			}
			state[tx.id[0]] = tx.path[0]
		case opDelete:
			if _, ok := state[tx.id[0]]; !ok {
				t.Fatalf("delete of absent id %d", tx.id[0])
			}
			delete(state, tx.id[0])
		case opRead:
			if state[tx.id[0]] != tx.path[0] || tx.path[0] == "" {
				t.Fatalf("read of id %d expects %q, state has %q", tx.id[0], tx.path[0], state[tx.id[0]])
			}
		}
	}
	if len(state) != len(g.cur) {
		t.Fatalf("mirror holds %d rows, replay %d", len(g.cur), len(state))
	}
}

// benchmarkJSON is BENCHMARK.json at the repository root.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func TestNamesMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	if b.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds is %d, the harness's default measured phase %d", b.RunSeconds, defaultSeconds)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the harness %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the harness %q", i, b.Workloads[i].Name, w.name)
		}
		if why := b.Workloads[i].Why; !name.MatchString(w.name) || why == "" || len(why) > 200 || strings.Contains(why, "\n") {
			t.Errorf("workload %q: bad name or why (%d chars)", w.name, len(why))
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the harness %d", len(b.EndToEnd), len(endToEnd))
	}
	seen := map[string]bool{}
	for i, d := range endToEnd {
		j := b.EndToEnd[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better || j.Bound != d.bound {
			t.Errorf("end-to-end %d: BENCHMARK.json has %+v, the harness %+v", i, j, d)
		}
		if d.bound <= 0 || d.bound > maxBound {
			t.Errorf("%s: bound %v outside (0, %v]", d.name, d.bound, maxBound)
		}
		seen[d.name] = true
	}
	if len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the harness %d", len(b.PerLayer), len(perLayer))
	}
	for i, d := range perLayer {
		j := b.PerLayer[i]
		if j.Name != d.name || j.Unit != d.unit || j.Better != d.better {
			t.Errorf("per-layer %d: BENCHMARK.json has %+v, the harness %+v", i, j, d)
		}
		if seen[d.name] {
			t.Errorf("metric name %s used twice", d.name)
		}
		seen[d.name] = true
	}
	for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
		if !name.MatchString(d.name) || !unit.MatchString(d.unit) || (d.better != "lower" && d.better != "higher") {
			t.Errorf("metric %+v: bad name, unit or direction", d)
		}
	}
}

func TestCompare(t *testing.T) {
	set := func(tps, p50 []float64) runSet {
		return runSet{"link_insert": {"txn_per_s": tps, "txn_p50_ms": p50}}
	}
	steady := []float64{1000, 1001, 1002, 1003}
	var buf bytes.Buffer
	if code := compareSets(&buf, set(steady, steady), set(steady, steady)); code != 0 || !strings.Contains(buf.String(), "ok within") {
		t.Errorf("identical inputs: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	slower := []float64{700, 701, 702, 703} // 30% fewer txn/s, 30% lower p50
	if code := compareSets(&buf, set(steady, steady), set(slower, slower)); code != 1 || strings.Count(buf.String(), "BREACH") != 1 {
		t.Errorf("30%% drop in a higher-is-better metric must breach once: exit %d\n%s", code, buf.String())
	}
	buf.Reset()
	noisy := []float64{500, 900, 1100, 1500}
	if code := compareSets(&buf, set(steady, steady), set(noisy, steady)); code != 0 || !strings.Contains(buf.String(), "unresolved") {
		t.Errorf("a spread above the bound must be unresolved: exit %d\n%s", code, buf.String())
	}
}

// TestWrongReadFailsRun makes every mirror expect another DATALINK than the
// table holds — from outside, a program serving stale links — and expects
// the clients' reads alone to make the run incorrect, with no id tainted out
// of the end-state check.
func TestWrongReadFailsRun(t *testing.T) {
	if runtime.GOMAXPROCS(0) < clients {
		t.Skipf("needs GOMAXPROCS >= %d", clients)
	}
	d, err := setup(workloadByName("read_mostly"), 1, quickScale, t.TempDir(), false)
	if err != nil {
		t.Fatal(err)
	}
	defer d.close()
	for _, g := range d.gens {
		for id := range g.cur {
			g.cur[id] = "/w/stale"
		}
	}
	res := d.pass(passOpts{perClient: 40})
	if len(res.problems) == 0 || res.failed == 0 || !errors.Is(res.firstErr, errWrongResult) {
		t.Fatalf("wrong reads went unseen: failed %d, problems %v, first error %v", res.failed, res.problems, res.firstErr)
	}
	for _, g := range d.gens {
		if len(g.tainted) > 0 {
			t.Errorf("client %d: %d ids tainted after a wrong result", g.client, len(g.tainted))
		}
	}
	out := &outcome{m: measurements{}}
	out.conclude(res, nil) // even with a clean end state
	if out.correct || out.result().Correct {
		t.Errorf("run with %d wrong reads is reported correct", len(res.problems))
	}
	if len(d.verify()) == 0 {
		t.Error("the end-state check misses rows whose DATALINK is not the last committed one")
	}
}

// TestQuickSmoke runs every workload, untraced and traced, at a fiftieth
// of the scale with every correctness check on.
func TestQuickSmoke(t *testing.T) {
	if runtime.GOMAXPROCS(0) < clients {
		t.Skipf("needs GOMAXPROCS >= %d", clients)
	}
	dir := t.TempDir()
	o := options{seed: 3, trace: -1, quick: true, runs: 1,
		outFile: filepath.Join(dir, "runs.jsonl"), outDir: dir, dataRoot: dir}
	code, err := run(o)
	if err != nil || code != 0 {
		t.Fatalf("quick run: exit %d, %v", code, err)
	}
	runs, err := readRuns(o.outFile)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range workloads {
		for _, d := range append(append([]metricDef{}, endToEnd...), perLayer...) {
			if len(runs[w.name][d.name]) != 1 {
				t.Errorf("%s: metric %s emitted %d times, want once", w.name, d.name, len(runs[w.name][d.name]))
			}
		}
		if _, err := os.Stat(filepath.Join(dir, w.name+".trace.jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", w.name, err)
		}
	}
	// At this scale the table may fit the pool; the full run checks < 1.
	if hit := runs["paged_durable"]["storage.pool_hit_frac"]; len(hit) == 1 && (hit[0] <= 0 || hit[0] > 1) {
		t.Errorf("paged_durable: pool hit fraction %v, want inside (0, 1]", hit[0])
	}
}
