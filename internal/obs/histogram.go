package obs

import (
	"errors"
	"sync/atomic"
	"time"
)

// defaultBounds are the latency bucket upper bounds, in nanoseconds:
// exponential from 10µs to 60s. The top of the range is deliberately the
// paper's 60 s lock timeout, so a lock-wait histogram resolves the whole
// tuning surface of experiment E7.
var defaultBounds = []int64{
	int64(10 * time.Microsecond),
	int64(20 * time.Microsecond),
	int64(50 * time.Microsecond),
	int64(100 * time.Microsecond),
	int64(200 * time.Microsecond),
	int64(500 * time.Microsecond),
	int64(1 * time.Millisecond),
	int64(2 * time.Millisecond),
	int64(5 * time.Millisecond),
	int64(10 * time.Millisecond),
	int64(20 * time.Millisecond),
	int64(50 * time.Millisecond),
	int64(100 * time.Millisecond),
	int64(200 * time.Millisecond),
	int64(500 * time.Millisecond),
	int64(1 * time.Second),
	int64(2 * time.Second),
	int64(5 * time.Second),
	int64(10 * time.Second),
	int64(30 * time.Second),
	int64(60 * time.Second),
}

// Histogram counts durations into fixed exponential buckets and tracks
// count, sum, and exact maximum. Observe is lock- and allocation-free; all
// read methods are safe concurrently with writers.
type Histogram struct {
	bounds []int64        // ascending upper bounds in ns; implicit +Inf after
	counts []atomic.Int64 // len(bounds)+1, last is the overflow bucket
	count  atomic.Int64
	sum    atomic.Int64 // nanoseconds
	max    atomic.Int64 // nanoseconds, exact

	// Exemplar: the trace id of the largest observation recorded via
	// ObserveEx, linking a /metrics outlier back to its span tree.
	exNS    atomic.Int64
	exTrace atomic.Int64
}

// NewHistogram returns a histogram with the default latency buckets
// (10µs .. 60s, exponential).
func NewHistogram() *Histogram { return NewHistogramBounds(defaultBounds) }

// NewHistogramBounds returns a histogram with the given ascending upper
// bounds in nanoseconds; an overflow (+Inf) bucket is added implicitly.
func NewHistogramBounds(bounds []int64) *Histogram {
	b := make([]int64, len(bounds))
	copy(b, bounds)
	return &Histogram{bounds: b, counts: make([]atomic.Int64, len(b)+1)}
}

// Observe records one duration.
func (h *Histogram) Observe(d time.Duration) {
	ns := int64(d)
	if ns < 0 {
		ns = 0
	}
	// Binary search for the first bound >= ns; the slice is small enough
	// that this stays in cache and performs no allocation.
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := (lo + hi) / 2
		if h.bounds[mid] < ns {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	h.counts[lo].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
	for {
		old := h.max.Load()
		if ns <= old || h.max.CompareAndSwap(old, ns) {
			return
		}
	}
}

// ObserveEx records one duration and, when trace is non-zero, offers it
// as the exemplar: the largest traced observation wins, so the exemplar
// on /metrics points at the worst outlier with a recorded span tree.
func (h *Histogram) ObserveEx(d time.Duration, trace int64) {
	h.Observe(d)
	if trace == 0 {
		return
	}
	ns := int64(d)
	for {
		old := h.exNS.Load()
		if ns < old {
			return
		}
		if h.exNS.CompareAndSwap(old, ns) {
			// The trace store can race another ObserveEx; either exemplar
			// is a genuine observation, which is all an exemplar promises.
			h.exTrace.Store(trace)
			return
		}
	}
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the total of all observations.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// Max returns the largest observation (exact, not bucketed).
func (h *Histogram) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile estimates the q-quantile (0 < q <= 1) by linear interpolation
// within the owning bucket, clamped to the exact observed maximum. Returns
// 0 when the histogram is empty.
func (h *Histogram) Quantile(q float64) time.Duration {
	return h.Export().Quantile(q)
}

// Summary is a point-in-time percentile digest of a histogram.
type Summary struct {
	Count int64
	Sum   time.Duration
	P50   time.Duration
	P95   time.Duration
	P99   time.Duration
	Max   time.Duration
}

// Summarize returns count, sum, p50/p95/p99, and max.
func (h *Histogram) Summarize() Summary {
	return h.Export().Summarize()
}

// --- Exported bucket data (federation) ---------------------------------------

// HistogramData is a point-in-time copy of a histogram's buckets: the
// currency of cross-process metric federation. BucketCounts are per-bucket
// (NOT cumulative) and one longer than BoundsNS — the final entry is the
// overflow (+Inf) bucket. The zero value is an empty histogram with no
// bounds; Merge treats it as mergeable with anything.
type HistogramData struct {
	BoundsNS     []int64 `json:"bounds_ns"`
	BucketCounts []int64 `json:"bucket_counts"`
	Count        int64   `json:"count"`
	SumNS        int64   `json:"sum_ns"`
	MaxNS        int64   `json:"max_ns"`
	// ExemplarNS and ExemplarTrace are the largest traced observation
	// (ObserveEx) and its trace id; zero when none was recorded.
	ExemplarNS    int64 `json:"exemplar_ns,omitempty"`
	ExemplarTrace int64 `json:"exemplar_trace,omitempty"`
}

// Export copies the histogram's current buckets. Concurrent Observe calls
// may land between the bucket reads and the count read, so Count is
// re-derived from the buckets — an Export is always internally consistent
// (Count == sum of BucketCounts), which is what Merge arithmetic needs.
func (h *Histogram) Export() HistogramData {
	d := HistogramData{
		BoundsNS:     append([]int64(nil), h.bounds...),
		BucketCounts: make([]int64, len(h.counts)),
		SumNS:        h.sum.Load(),
		MaxNS:        h.max.Load(),
	}
	d.ExemplarNS, d.ExemplarTrace = h.exNS.Load(), h.exTrace.Load()
	for i := range h.counts {
		n := h.counts[i].Load()
		d.BucketCounts[i] = n
		d.Count += n
	}
	return d
}

// ErrBucketMismatch reports a Merge or Sub across histograms with different
// bucket bounds; re-bucketing would silently corrupt quantiles, so the
// caller must skip or resample instead.
var ErrBucketMismatch = errors.New("obs: histogram bucket bounds differ")

func sameBounds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Merge adds o into d bucket-wise, keeping the larger exemplar. Count,
// Sum, and Max are exact; any quantile of the merged data is within one
// bucket bound of the quantile a single histogram observing both streams
// would report (the streams landed in the same buckets either way). An
// empty side adopts the other's bounds.
func (d *HistogramData) Merge(o HistogramData) error {
	if o.Count == 0 && len(o.BoundsNS) == 0 {
		return nil
	}
	if d.Count == 0 && len(d.BoundsNS) == 0 {
		*d = o.clone()
		return nil
	}
	if !sameBounds(d.BoundsNS, o.BoundsNS) {
		return ErrBucketMismatch
	}
	for i := range d.BucketCounts {
		d.BucketCounts[i] += o.BucketCounts[i]
	}
	d.Count += o.Count
	d.SumNS += o.SumNS
	if o.MaxNS > d.MaxNS {
		d.MaxNS = o.MaxNS
	}
	if o.ExemplarNS > d.ExemplarNS {
		d.ExemplarNS, d.ExemplarTrace = o.ExemplarNS, o.ExemplarTrace
	}
	return nil
}

// Sub returns d minus prev — the observations that landed between two
// scrapes of a monotonically growing histogram. Negative deltas (a member
// restarted and its counters reset) clamp to the current data, treating
// the scrape as a fresh baseline.
func (d HistogramData) Sub(prev HistogramData) (HistogramData, error) {
	if prev.Count == 0 && len(prev.BoundsNS) == 0 {
		return d.clone(), nil
	}
	if !sameBounds(d.BoundsNS, prev.BoundsNS) {
		return HistogramData{}, ErrBucketMismatch
	}
	if d.Count < prev.Count || d.SumNS < prev.SumNS {
		return d.clone(), nil // counter reset: restart window
	}
	out := d.clone()
	for i := range out.BucketCounts {
		out.BucketCounts[i] -= prev.BucketCounts[i]
		if out.BucketCounts[i] < 0 {
			return d.clone(), nil
		}
	}
	out.Count -= prev.Count
	out.SumNS -= prev.SumNS
	// Max is high-water, not windowed; keep the cumulative max.
	return out, nil
}

func (d HistogramData) clone() HistogramData {
	c := d
	c.BoundsNS = append([]int64(nil), d.BoundsNS...)
	c.BucketCounts = append([]int64(nil), d.BucketCounts...)
	return c
}

// Quantile estimates the q-quantile of the exported data with the same
// interpolation (and max clamp) as Histogram.Quantile.
func (d HistogramData) Quantile(q float64) time.Duration {
	total := int64(0)
	for _, n := range d.BucketCounts {
		total += n
	}
	if total == 0 {
		return 0
	}
	target := int64(q*float64(total) + 0.5)
	if target < 1 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum int64
	for i, n := range d.BucketCounts {
		if cum+n < target {
			cum += n
			continue
		}
		if i == len(d.BoundsNS) {
			// Overflow bucket: the max is the best estimate.
			return time.Duration(d.MaxNS)
		}
		lo := int64(0)
		if i > 0 {
			lo = d.BoundsNS[i-1]
		}
		hi := d.BoundsNS[i]
		frac := float64(target-cum) / float64(n)
		est := lo + int64(frac*float64(hi-lo))
		if est > d.MaxNS {
			est = d.MaxNS
		}
		return time.Duration(est)
	}
	return time.Duration(d.MaxNS)
}

// Summarize digests the exported data like Histogram.Summarize.
func (d HistogramData) Summarize() Summary {
	return Summary{
		Count: d.Count,
		Sum:   time.Duration(d.SumNS),
		P50:   d.Quantile(0.50),
		P95:   d.Quantile(0.95),
		P99:   d.Quantile(0.99),
		Max:   time.Duration(d.MaxNS),
	}
}
