package obs

import (
	"testing"
	"time"
)

// The counter-increment and histogram-observe paths sit inside the
// engine's per-row and per-lock loops; they must not allocate. The
// benchmarks report allocs/op and the test pins them to zero.

func BenchmarkCounterAdd(b *testing.B) {
	var c Counter
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Add(1)
	}
	if c.Load() != int64(b.N) {
		b.Fatal("lost updates")
	}
}

func BenchmarkHistogramObserve(b *testing.B) {
	h := NewHistogram()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
}

func BenchmarkTracerEmit(b *testing.B) {
	tr := NewTracerCfg(TracerConfig{})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.Emit(int64(i), "bench", "op", "")
	}
}

func TestHotPathNoAlloc(t *testing.T) {
	var c Counter
	if n := testing.AllocsPerRun(1000, func() { c.Add(1) }); n != 0 {
		t.Fatalf("Counter.Add allocates %.1f times per op", n)
	}
	h := NewHistogram()
	if n := testing.AllocsPerRun(1000, func() { h.Observe(3 * time.Millisecond) }); n != 0 {
		t.Fatalf("Histogram.Observe allocates %.1f times per op", n)
	}
	var g Gauge
	if n := testing.AllocsPerRun(1000, func() { g.Add(1) }); n != 0 {
		t.Fatalf("Gauge.Add allocates %.1f times per op", n)
	}
}
