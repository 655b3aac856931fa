// Package obs is the observability substrate of the reproduction: a
// dependency-free registry of named counters, gauges, and fixed-bucket
// latency histograms, one bounded ring of per-transaction spans and marks,
// and an HTTP admin endpoint serving Prometheus-format metrics,
// per-transaction traces, and live lock-table dumps.
//
// Every lesson in Section 4 of the paper — lock escalation "bringing the
// system to its knees", next-key deadlocks, the 60 s timeout, log-full
// during long utilities — was found by observing the running system; this
// package gives the reproduction the same eyes. Gray & Lamport frame 2PC
// cost in message and stable-write delays, which is exactly what the
// phase-level histograms here measure.
//
// Design rules:
//
//   - Counter.Add and Histogram.Observe are allocation-free and lock-free
//     (guarded by benchmarks in this package), so instrumentation may sit
//     on the hottest engine paths.
//   - Counter and Histogram work standalone; attaching them to a Registry
//     only adds them to the /metrics output. Legacy Stats() snapshot
//     methods throughout the repo read the same atomics the registry
//     exports, so the two views can never disagree.
//   - Tracer methods are nil-receiver-safe: un-instrumented components
//     pay a single predictable branch.
package obs

import (
	"sync"
	"sync/atomic"
)

// Counter is a cumulative event count. The zero value is ready to use; it
// may be a struct field (the stats structs across the repo embed it) and
// registered with a Registry afterwards. Add is lock- and allocation-free.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) { c.v.Add(d) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a value that can go up and down (queue depths, active bytes).
// The zero value is ready to use.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add moves the gauge by d (negative to decrease).
func (g *Gauge) Add(d int64) { g.v.Add(d) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// defaultRegistry is the process-wide registry used by components that are
// not handed an explicit one (the workload runner, the bench harness).
// Long-lived servers (core.Server, hostdb.DB) each own a private registry
// so that several instances in one process never share counters.
var (
	defaultOnce sync.Once
	defaultReg  *Registry
)

// Default returns the process-wide registry.
func Default() *Registry {
	defaultOnce.Do(func() { defaultReg = New() })
	return defaultReg
}
