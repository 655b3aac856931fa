package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := New()
	c := r.Counter("ops_total")
	c.Inc()
	c.Add(4)
	if got := r.Counter("ops_total").Load(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
	g := r.Gauge("depth")
	g.Set(7)
	g.Add(-2)
	if got := g.Load(); got != 5 {
		t.Fatalf("gauge = %d, want 5", got)
	}
	r.GaugeFunc("live", func() float64 { return 1.5 })

	// Attaching an external counter exposes the same storage.
	var ext Counter
	ext.Add(42)
	r.RegisterCounter("ext_total", &ext)
	ext.Inc()
	if got := r.Counter("ext_total").Load(); got != 43 {
		t.Fatalf("registered counter = %d, want 43", got)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Observe(time.Millisecond) // bucket (500µs, 1ms]
	}
	for i := 0; i < 5; i++ {
		h.Observe(80 * time.Millisecond) // bucket (50ms, 100ms]
	}
	if h.Count() != 105 {
		t.Fatalf("count = %d", h.Count())
	}
	if h.Max() != 80*time.Millisecond {
		t.Fatalf("max = %v", h.Max())
	}
	p50 := h.Quantile(0.5)
	if p50 <= 500*time.Microsecond || p50 > time.Millisecond {
		t.Fatalf("p50 = %v, want in (500µs, 1ms]", p50)
	}
	p99 := h.Quantile(0.99)
	if p99 <= 50*time.Millisecond || p99 > 80*time.Millisecond {
		t.Fatalf("p99 = %v, want in (50ms, 80ms]", p99)
	}
	if h.Quantile(1) != 80*time.Millisecond {
		t.Fatalf("p100 = %v", h.Quantile(1))
	}
	// Quantiles are monotonic and bounded by the exact max.
	prev := time.Duration(0)
	for _, q := range []float64{0.1, 0.5, 0.9, 0.95, 0.99, 1} {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("quantile(%v) = %v < previous %v", q, v, prev)
		}
		if v > h.Max() {
			t.Fatalf("quantile(%v) = %v > max %v", q, v, h.Max())
		}
		prev = v
	}

	var empty Histogram
	if empty.Quantile(0.5) != 0 {
		t.Fatalf("empty histogram quantile should be 0")
	}
}

func TestHistogramOverflowBucket(t *testing.T) {
	h := NewHistogram()
	h.Observe(5 * time.Minute) // beyond the 60s top bound
	if got := h.Quantile(0.5); got != 5*time.Minute {
		t.Fatalf("overflow quantile = %v, want 5m", got)
	}
}

func TestWriteProm(t *testing.T) {
	r := New().Label("server", "fs1")
	r.Counter("dlfm_links_total").Add(3)
	r.Gauge("wal_active_bytes").Set(10)
	r.Histogram("lock_wait_seconds").Observe(2 * time.Millisecond)

	var b strings.Builder
	if err := r.WriteProm(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE dlfm_links_total counter",
		`dlfm_links_total{server="fs1"} 3`,
		`wal_active_bytes{server="fs1"} 10`,
		"# TYPE lock_wait_seconds histogram",
		`lock_wait_seconds_bucket{server="fs1",le="0.002"} 1`,
		`lock_wait_seconds_bucket{server="fs1",le="+Inf"} 1`,
		`lock_wait_seconds_count{server="fs1"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestSnapshot(t *testing.T) {
	r := New()
	r.Counter("a_total").Add(9)
	r.Histogram("lat_seconds").Observe(time.Millisecond)
	snap := r.Export()
	if snap.Counters["a_total"] != 9 {
		t.Fatalf("snapshot a_total = %v", snap.Counters["a_total"])
	}
	if n := snap.Hists["lat_seconds"].Count; n != 1 {
		t.Fatalf("snapshot hist count = %v", n)
	}
}

// A gauge function may block on its owner's lock while the owner registers
// a metric (engine.Crash re-attaches the lock manager's counters under the
// engine latch). Export evaluates gauge functions outside the registry
// lock, so the two cannot deadlock.
func TestExportGaugeFuncLockOrder(t *testing.T) {
	r := New()
	var owner sync.Mutex
	entered := make(chan struct{})
	r.GaugeFunc("owned", func() float64 {
		close(entered)
		owner.Lock()
		defer owner.Unlock()
		return 1
	})
	owner.Lock()
	done := make(chan MetricsSnapshot, 1)
	go func() { done <- r.Export() }()
	<-entered
	go func() {
		r.Counter("registered_under_owner").Inc()
		owner.Unlock()
	}()
	select {
	case snap := <-done:
		if snap.Gauges["owned"] != 1 {
			t.Fatalf("owned = %v, want 1", snap.Gauges["owned"])
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Export deadlocked against a gauge function whose owner registers a metric")
	}
}
