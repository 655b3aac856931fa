package obs

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Registry is a named collection of metrics. Registration and lookup take
// a mutex; callers cache the returned pointers, so the hot path never
// touches the registry. All methods are safe for concurrent use.
//
// Metrics may be created through the registry (Counter, Gauge, Histogram —
// get-or-create) or created elsewhere and attached (RegisterCounter,
// RegisterHistogram). Attaching under an existing name replaces the
// previous metric: components that are rebuilt on crash recovery (the lock
// manager, for example) re-attach their fresh counters and the registry
// follows, exactly as the legacy Stats() snapshots do.
type Registry struct {
	mu       sync.Mutex
	labels   []string // rendered `k="v"` pairs applied to every metric
	counters map[string]*Counter
	gauges   map[string]*Gauge
	gaugeFns map[string]func() float64
	hists    map[string]*Histogram
}

// New returns an empty registry.
func New() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		gaugeFns: make(map[string]func() float64),
		hists:    make(map[string]*Histogram),
	}
}

// Label adds a constant label rendered on every metric this registry
// exports (for example server="fs1" on a DLFM instance's registry).
func (r *Registry) Label(key, value string) *Registry {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.labels = append(r.labels, fmt.Sprintf("%s=%q", key, value))
	return r
}

// Counter returns the counter registered under name, creating it if
// needed.
func (r *Registry) Counter(name string) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	c := r.counters[name]
	if c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// RegisterCounter attaches an existing counter under name, replacing any
// previous registration.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.counters[name] = c
}

// Gauge returns the gauge registered under name, creating it if needed.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	g := r.gauges[name]
	if g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// GaugeFunc registers a gauge whose value is computed at scrape time (live
// lock counts, active log bytes). Replaces any previous function under
// name.
func (r *Registry) GaugeFunc(name string, f func() float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFns[name] = f
}

// Histogram returns the histogram registered under name (default latency
// buckets), creating it if needed.
func (r *Registry) Histogram(name string) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	h := r.hists[name]
	if h == nil {
		h = NewHistogram()
		r.hists[name] = h
	}
	return h
}

// RegisterHistogram attaches an existing histogram under name, replacing
// any previous registration.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.hists[name] = h
}

// WriteProm renders every metric in Prometheus text exposition format
// (sorted by name, histograms as cumulative le buckets in seconds).
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	labels := r.labels
	counters := make(map[string]*Counter, len(r.counters))
	for k, v := range r.counters {
		counters[k] = v
	}
	gauges := make(map[string]*Gauge, len(r.gauges))
	for k, v := range r.gauges {
		gauges[k] = v
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for k, v := range r.gaugeFns {
		gaugeFns[k] = v
	}
	hists := make(map[string]*Histogram, len(r.hists))
	for k, v := range r.hists {
		hists[k] = v
	}
	r.mu.Unlock()

	render := func(name string, extra ...string) string {
		if len(labels) == 0 && len(extra) == 0 {
			return name
		}
		all := append(append([]string{}, labels...), extra...)
		return name + "{" + strings.Join(all, ",") + "}"
	}

	var names []string
	for n := range counters {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if _, err := fmt.Fprintf(w, "# HELP %s Cumulative count.\n# TYPE %s counter\n%s %d\n", n, n, render(n), counters[n].Load()); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range gauges {
		names = append(names, n)
	}
	for n := range gaugeFns {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		var v float64
		if f, ok := gaugeFns[n]; ok {
			v = f()
		} else {
			v = float64(gauges[n].Load())
		}
		if _, err := fmt.Fprintf(w, "# HELP %s Current value.\n# TYPE %s gauge\n%s %g\n", n, n, render(n), v); err != nil {
			return err
		}
	}

	names = names[:0]
	for n := range hists {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		h := hists[n]
		bounds, cum := h.buckets()
		if _, err := fmt.Fprintf(w, "# HELP %s Duration histogram in seconds.\n# TYPE %s histogram\n", n, n); err != nil {
			return err
		}
		for i, b := range bounds {
			le := fmt.Sprintf("le=%q", formatSeconds(b))
			if _, err := fmt.Fprintf(w, "%s %d\n", render(n+"_bucket", le), cum[i]); err != nil {
				return err
			}
		}
		// OpenMetrics-style exemplar on the +Inf bucket line, linking the
		// outlier to its trace (/debug/txn/<id>).
		exSuffix := ""
		if exD, exTrace := h.Exemplar(); exTrace != 0 {
			exSuffix = fmt.Sprintf(" # {trace_id=\"%d\"} %g", exTrace, exD.Seconds())
		}
		if _, err := fmt.Fprintf(w, "%s %d%s\n", render(n+"_bucket", `le="+Inf"`), cum[len(cum)-1], exSuffix); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %g\n", render(n+"_sum"), h.Sum().Seconds()); err != nil {
			return err
		}
		if _, err := fmt.Fprintf(w, "%s %d\n", render(n+"_count"), h.Count()); err != nil {
			return err
		}
		// Non-standard companion gauge: the exact maximum, which cumulative
		// buckets cannot carry. The federation parser folds it back into
		// HistogramData.MaxNS so quantile clamping survives an HTTP scrape.
		if _, err := fmt.Fprintf(w, "%s %g\n", render(n+"_max"), h.Max().Seconds()); err != nil {
			return err
		}
	}
	return nil
}

// formatSeconds renders a nanosecond bound as seconds without trailing
// zero noise (10µs -> "1e-05" is avoided; "0.00001" is used).
func formatSeconds(ns int64) string {
	s := fmt.Sprintf("%.9f", time.Duration(ns).Seconds())
	s = strings.TrimRight(s, "0")
	s = strings.TrimSuffix(s, ".")
	if s == "" {
		s = "0"
	}
	return s
}

// MetricsSnapshot is a registry's state in mergeable form: the currency of
// fleet federation. Counters and gauges carry their raw values; histograms
// carry full bucket exports so a collector can merge them bucket-wise.
type MetricsSnapshot struct {
	Counters map[string]int64         `json:"counters"`
	Gauges   map[string]float64       `json:"gauges"`
	Hists    map[string]HistogramData `json:"hists"`
}

// NewMetricsSnapshot returns an empty snapshot with initialized maps.
func NewMetricsSnapshot() MetricsSnapshot {
	return MetricsSnapshot{
		Counters: make(map[string]int64),
		Gauges:   make(map[string]float64),
		Hists:    make(map[string]HistogramData),
	}
}

// Export copies every metric into a MetricsSnapshot. GaugeFuncs are
// evaluated at export time, after the registry lock is released: a gauge
// function may take its owner's lock (engine_lock_pressure takes the
// engine latch), and that owner registers metrics while holding it
// (engine.Crash rebuilds the lock manager under the latch).
func (r *Registry) Export() MetricsSnapshot {
	r.mu.Lock()
	s := NewMetricsSnapshot()
	for n, c := range r.counters {
		s.Counters[n] = c.Load()
	}
	for n, g := range r.gauges {
		s.Gauges[n] = float64(g.Load())
	}
	gaugeFns := make(map[string]func() float64, len(r.gaugeFns))
	for n, f := range r.gaugeFns {
		gaugeFns[n] = f
	}
	for n, h := range r.hists {
		s.Hists[n] = h.Export()
	}
	r.mu.Unlock()
	for n, f := range gaugeFns {
		s.Gauges[n] = f()
	}
	return s
}

// Merge folds o into s with federation semantics: counters and gauges sum,
// histograms merge bucket-wise. A histogram whose bucket bounds disagree is
// skipped and reported in the returned (joined) error; everything else
// still merges, so one odd member cannot blank the fleet view.
func (s *MetricsSnapshot) Merge(o MetricsSnapshot) error {
	if s.Counters == nil {
		*s = NewMetricsSnapshot()
	}
	for n, v := range o.Counters {
		s.Counters[n] += v
	}
	for n, v := range o.Gauges {
		s.Gauges[n] += v
	}
	var errs []error
	for n, h := range o.Hists {
		cur := s.Hists[n]
		if err := cur.Merge(h); err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", n, err))
			continue
		}
		s.Hists[n] = cur
	}
	return errors.Join(errs...)
}
