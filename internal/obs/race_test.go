package obs

import (
	"strings"
	"sync"
	"testing"
	"time"
)

// TestContention hammers one registry's counters, gauges, histograms, and
// a shared span ring from many goroutines, interleaved with scrapes. It
// exists to be run under -race; the final counts double as a lost-update
// check.
func TestContention(t *testing.T) {
	const (
		goroutines = 16
		iterations = 2000
	)
	r := New()
	tr := NewTracerCfg(TracerConfig{SpanCapacity: 1024})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			c := r.Counter("ops_total")
			gauge := r.Gauge("depth")
			h := r.Histogram("lat_seconds")
			named := tr.Named("worker")
			for i := 0; i < iterations; i++ {
				c.Inc()
				gauge.Add(1)
				gauge.Add(-1)
				h.Observe(time.Duration(i%1000) * time.Microsecond)
				named.Emit(int64(g), "bench", "op", "")
				if i%500 == 0 {
					_ = r.Export()
					_ = tr.ByTxn(int64(g))
				}
			}
		}(g)
	}
	// Concurrent scraper.
	done := make(chan struct{})
	go func() {
		defer close(done)
		var sink nopWriter
		for i := 0; i < 50; i++ {
			r.WriteProm(&sink) //nolint:errcheck
			_ = tr.Spans()
		}
	}()
	wg.Wait()
	<-done

	if got := r.Counter("ops_total").Load(); got != goroutines*iterations {
		t.Fatalf("ops_total = %d, want %d", got, goroutines*iterations)
	}
	if got := r.Histogram("lat_seconds").Count(); got != goroutines*iterations {
		t.Fatalf("histogram count = %d, want %d", got, goroutines*iterations)
	}
	if got := r.Gauge("depth").Load(); got != 0 {
		t.Fatalf("gauge = %d, want 0", got)
	}
	if got := len(tr.Spans()); got != 1024 {
		t.Fatalf("span ring = %d records, want full 1024", got)
	}
}

type nopWriter struct{}

func (nopWriter) Write(p []byte) (int, error) { return len(p), nil }

// TestWritePromSelfConsistent scrapes a registry in a loop while four
// goroutines observe into one histogram. Every page must agree with
// itself: a histogram's _count equals its +Inf bucket, as the Prometheus
// text format requires.
func TestWritePromSelfConsistent(t *testing.T) {
	r := New()
	h := r.Histogram("race_seconds")
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				h.Observe(time.Duration(i%1000) * time.Microsecond)
			}
		}()
	}
	defer func() {
		close(done)
		wg.Wait()
	}()
	for page := 0; page < 2000; page++ {
		var b strings.Builder
		if err := r.WriteProm(&b); err != nil {
			t.Fatal(err)
		}
		var inf, count string
		for _, line := range strings.Split(b.String(), "\n") {
			if v, ok := strings.CutPrefix(line, `race_seconds_bucket{le="+Inf"} `); ok {
				inf = v
			}
			if v, ok := strings.CutPrefix(line, "race_seconds_count "); ok {
				count = v
			}
		}
		if inf == "" || inf != count {
			t.Fatalf("page %d: +Inf bucket %q, _count %q", page, inf, count)
		}
	}
}
