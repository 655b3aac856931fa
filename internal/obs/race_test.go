package obs

import (
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
					_ = r.Snapshot()
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
