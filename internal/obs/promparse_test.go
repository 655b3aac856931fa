package obs

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"
)

// TestPromRoundTrip: WriteProm → ParsePromText must reproduce the
// registry's Export — the property HTTP federation rests on. Counters and
// gauges round-trip exactly; histogram sums go through a seconds float, so
// they round-trip to nanosecond precision only within float64 resolution.
func TestPromRoundTrip(t *testing.T) {
	reg := New().Label("server", "fs1")
	reg.Counter("rt_commits_total").Add(41)
	reg.Counter("rt_aborts_total").Add(3)
	reg.Gauge("rt_queue_depth").Set(7)
	reg.GaugeFunc("rt_pool_fill", func() float64 { return 0.625 })
	h := reg.Histogram("rt_commit_seconds")
	h.Observe(350 * time.Microsecond)
	h.Observe(12 * time.Millisecond)
	h.ObserveEx(90*time.Millisecond, 777) // exemplar suffix must be ignored
	h.Observe(2 * time.Minute)            // overflow bucket
	want := reg.Export()

	var buf bytes.Buffer
	if err := reg.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()

	// Satellite check: the exposition self-describes every metric kind.
	for _, line := range []string{
		"# TYPE rt_commits_total counter",
		"# TYPE rt_queue_depth gauge",
		"# TYPE rt_pool_fill gauge",
		"# TYPE rt_commit_seconds histogram",
		"# HELP rt_commit_seconds",
		`rt_commit_seconds_bucket{server="fs1",le="+Inf"}`,
		`rt_commit_seconds_max{server="fs1"}`,
	} {
		if !strings.Contains(text, line) {
			t.Fatalf("exposition missing %q:\n%s", line, text)
		}
	}

	got, err := ParsePromText(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	for name, v := range want.Counters {
		if got.Counters[name] != v {
			t.Fatalf("counter %s: parsed %d, want %d", name, got.Counters[name], v)
		}
	}
	if len(got.Counters) != len(want.Counters) {
		t.Fatalf("parsed %d counters, want %d", len(got.Counters), len(want.Counters))
	}
	for name, v := range want.Gauges {
		if math.Abs(got.Gauges[name]-v) > 1e-9 {
			t.Fatalf("gauge %s: parsed %v, want %v", name, got.Gauges[name], v)
		}
	}
	hd, ok := got.Hists["rt_commit_seconds"]
	if !ok {
		t.Fatalf("parsed snapshot missing histogram; hists = %v", got.Hists)
	}
	wd := want.Hists["rt_commit_seconds"]
	if hd.Count != wd.Count {
		t.Fatalf("hist count: parsed %d, want %d", hd.Count, wd.Count)
	}
	if hd.MaxNS != wd.MaxNS {
		t.Fatalf("hist max: parsed %d, want %d (from _max companion)", hd.MaxNS, wd.MaxNS)
	}
	if len(hd.BoundsNS) != len(wd.BoundsNS) {
		t.Fatalf("hist bounds: parsed %d, want %d", len(hd.BoundsNS), len(wd.BoundsNS))
	}
	for i := range wd.BoundsNS {
		if hd.BoundsNS[i] != wd.BoundsNS[i] {
			t.Fatalf("bound %d: parsed %d, want %d", i, hd.BoundsNS[i], wd.BoundsNS[i])
		}
		if hd.BucketCounts[i] != wd.BucketCounts[i] {
			t.Fatalf("bucket %d: parsed %d, want %d", i, hd.BucketCounts[i], wd.BucketCounts[i])
		}
	}
	if hd.BucketCounts[len(hd.BucketCounts)-1] != wd.BucketCounts[len(wd.BucketCounts)-1] {
		t.Fatal("overflow bucket mismatch")
	}
	if diff := hd.SumNS - wd.SumNS; diff < -1000 || diff > 1000 {
		t.Fatalf("hist sum: parsed %d, want %d (±1µs)", hd.SumNS, wd.SumNS)
	}
}

// TestPromParseFoldsLabelVariants: one page concatenating several
// registries (each with its own server label) folds into federated totals,
// the way a collector reads a member's combined admin /metrics page.
func TestPromParseFoldsLabelVariants(t *testing.T) {
	a := New().Label("server", "fs1")
	b := New().Label("server", "fs1-standby")
	a.Counter("fold_ops_total").Add(10)
	b.Counter("fold_ops_total").Add(4)
	ha := a.Histogram("fold_seconds")
	hb := b.Histogram("fold_seconds")
	ha.Observe(time.Millisecond)
	hb.Observe(30 * time.Millisecond)
	hb.Observe(2 * time.Millisecond)

	var buf bytes.Buffer
	if err := a.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	if err := b.WriteProm(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ParsePromText(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Counters["fold_ops_total"] != 14 {
		t.Fatalf("folded counter = %d, want 14", got.Counters["fold_ops_total"])
	}
	hd := got.Hists["fold_seconds"]
	if hd.Count != 3 {
		t.Fatalf("folded hist count = %d, want 3", hd.Count)
	}
	if hd.MaxNS != int64(30*time.Millisecond) {
		t.Fatalf("folded hist max = %d, want 30ms", hd.MaxNS)
	}
}

// TestPromParseEmpty: an empty page parses to an empty snapshot, not an
// error — a member with a fresh registry is healthy, not broken.
func TestPromParseEmpty(t *testing.T) {
	got, err := ParsePromText(strings.NewReader(""))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Counters)+len(got.Gauges)+len(got.Hists) != 0 {
		t.Fatalf("empty parse produced data: %+v", got)
	}
}

// FuzzParsePromText: /cluster/metrics parses text a peer supplies, so the
// parser must reject garbage with an error, never a panic — and whatever
// WriteProm emits must parse back to the registry's own counters and
// histogram buckets.
func FuzzParsePromText(f *testing.F) {
	reg := New().Label("server", "fs1")
	reg.Counter("fz_ops_total").Add(9)
	reg.Gauge("fz_depth").Set(3)
	reg.Histogram("fz_seconds").ObserveEx(40*time.Millisecond, 77)
	var page bytes.Buffer
	if err := reg.WriteProm(&page); err != nil {
		f.Fatal(err)
	}
	for _, seed := range []string{
		page.String(),
		"",
		"fz_ops_total",                         // no value
		"fz_ops_total{server=\"fs1\" 1",        // unterminated label set
		"fz_ops_total{server=\"fs1} 1",         // unterminated label value
		"fz_ops_total{server} 1",               // malformed label
		"fz_ops_total{server=\"a\\\"b\\n\"} x", // escapes, bad value
		"# TYPE h histogram\nh_bucket{le=\"abc\"} 1",
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"0.2\"} 3\nh_bucket{le=\"+Inf\"} 5", // non-monotonic
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} 5\nh_bucket{le=\"+Inf\"} 2",                         // +Inf below last bound
		"# TYPE h histogram\nh_bucket{le=\"0.1\"} NaN\nh_sum 1e308\nh_count -1\nh_max +Inf",
	} {
		f.Add([]byte(seed), int64(41), int64(350*time.Microsecond))
	}
	f.Fuzz(func(t *testing.T, text []byte, n, durNS int64) {
		ParsePromText(bytes.NewReader(text)) //nolint:errcheck // must not panic; errors are the point

		reg := New().Label("server", string(text))
		reg.Counter("rt_total").Add(n)
		h := reg.Histogram("rt_seconds")
		h.Observe(time.Duration(durNS))
		h.Observe(time.Millisecond)
		var buf bytes.Buffer
		if err := reg.WriteProm(&buf); err != nil {
			t.Fatal(err)
		}
		got, err := ParsePromText(&buf)
		if err != nil {
			t.Fatalf("own exposition does not parse: %v\n%s", err, buf.String())
		}
		want := reg.Export()
		if got.Counters["rt_total"] != want.Counters["rt_total"] {
			t.Fatalf("counter: parsed %d, want %d", got.Counters["rt_total"], want.Counters["rt_total"])
		}
		gh, wh := got.Hists["rt_seconds"], want.Hists["rt_seconds"]
		if gh.Count != wh.Count || len(gh.BucketCounts) != len(wh.BucketCounts) {
			t.Fatalf("histogram: parsed %+v, want %+v", gh, wh)
		}
		for i := range wh.BucketCounts {
			if gh.BucketCounts[i] != wh.BucketCounts[i] {
				t.Fatalf("bucket %d: parsed %d, want %d", i, gh.BucketCounts[i], wh.BucketCounts[i])
			}
		}
	})
}
