package obs

import (
	"bytes"
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

// WriteProm renders every metric in Prometheus text exposition format:
// WritePromText over one Export, labelled with the registry's labels.
func (r *Registry) WriteProm(w io.Writer) error {
	r.mu.Lock()
	labels := append([]string(nil), r.labels...)
	r.mu.Unlock()
	return WritePromText(w, Series{Labels: labels, Snap: r.Export()})
}

// Series is one labelled snapshot on a Prometheus page: Labels are
// rendered `k="v"` pairs put on every sample the snapshot contributes.
type Series struct {
	Labels []string
	Snap   MetricsSnapshot
}

// WritePromText renders series as one Prometheus text exposition page.
// Counters, then gauges, then histograms, each sorted by name; HELP and
// TYPE once per name, then one sample (or histogram block) per series
// carrying that name, in series order. Histograms render as cumulative
// le buckets in seconds, the exemplar trailing the +Inf line, then _sum,
// _count, and a non-standard _max companion carrying the exact maximum
// that ParsePromText folds back into HistogramData.MaxNS.
func WritePromText(w io.Writer, series ...Series) error {
	var b bytes.Buffer
	for _, n := range names(series, func(s MetricsSnapshot) map[string]int64 { return s.Counters }) {
		fmt.Fprintf(&b, "# HELP %s Cumulative count.\n# TYPE %s counter\n", n, n)
		for _, s := range series {
			if v, ok := s.Snap.Counters[n]; ok {
				fmt.Fprintf(&b, "%s %d\n", render(n, s.Labels), v)
			}
		}
	}
	for _, n := range names(series, func(s MetricsSnapshot) map[string]float64 { return s.Gauges }) {
		fmt.Fprintf(&b, "# HELP %s Current value.\n# TYPE %s gauge\n", n, n)
		for _, s := range series {
			if v, ok := s.Snap.Gauges[n]; ok {
				fmt.Fprintf(&b, "%s %g\n", render(n, s.Labels), v)
			}
		}
	}
	for _, n := range names(series, func(s MetricsSnapshot) map[string]HistogramData { return s.Hists }) {
		fmt.Fprintf(&b, "# HELP %s Duration histogram in seconds.\n# TYPE %s histogram\n", n, n)
		for _, s := range series {
			d, ok := s.Snap.Hists[n]
			if !ok {
				continue
			}
			var cum int64
			for i, bound := range d.BoundsNS {
				cum += d.BucketCounts[i]
				fmt.Fprintf(&b, "%s %d\n", render(n+"_bucket", s.Labels, fmt.Sprintf("le=%q", formatSeconds(bound))), cum)
			}
			ex := ""
			if d.ExemplarTrace != 0 {
				ex = fmt.Sprintf(" # {trace_id=\"%d\"} %g", d.ExemplarTrace, time.Duration(d.ExemplarNS).Seconds())
			}
			fmt.Fprintf(&b, "%s %d%s\n", render(n+"_bucket", s.Labels, `le="+Inf"`), d.Count, ex)
			fmt.Fprintf(&b, "%s %g\n", render(n+"_sum", s.Labels), time.Duration(d.SumNS).Seconds())
			fmt.Fprintf(&b, "%s %d\n", render(n+"_count", s.Labels), d.Count)
			fmt.Fprintf(&b, "%s %g\n", render(n+"_max", s.Labels), time.Duration(d.MaxNS).Seconds())
		}
	}
	_, err := w.Write(b.Bytes())
	return err
}

// names returns the sorted union of one metric kind's names over series.
func names[V any](series []Series, kind func(MetricsSnapshot) map[string]V) []string {
	seen := map[string]bool{}
	var out []string
	for _, s := range series {
		for n := range kind(s.Snap) {
			if !seen[n] {
				seen[n] = true
				out = append(out, n)
			}
		}
	}
	sort.Strings(out)
	return out
}

// render names one sample: name{labels...,extra...}.
func render(name string, labels []string, extra ...string) string {
	if len(labels)+len(extra) == 0 {
		return name
	}
	return name + "{" + strings.Join(append(append([]string(nil), labels...), extra...), ",") + "}"
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
