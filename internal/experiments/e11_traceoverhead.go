package experiments

import (
	"fmt"
	"time"

	"repro/internal/fault"
	"repro/internal/obs"
)

// E11Report measures what causal span tracing costs on the commit path.
// Both runs use E10's 8-participant stack (one DATALINK column per DLFM,
// parallel fan-out, one simulated network round trip per RPC); the only
// difference is the process-wide sampling rate. The shape to check: the
// fully-sampled median commit stays within a few percent of the unsampled
// one — span creation is a handful of mutex-guarded allocations against a
// commit that pays 2x8 network round trips.
type E11Report struct {
	Rows []E11Row
}

// E11Row is one sampling-rate measurement.
type E11Row struct {
	Label       string
	SampleRate  float64
	P50         time.Duration
	OverheadPct float64 // vs the sampling-off baseline
}

// RunE11TraceOverhead measures the 8-participant commit p50 with tracing
// off, at 10% sampling, and at 100% sampling.
func RunE11TraceOverhead(opt Options) (*E11Report, error) {
	fault.Default().Arm("rpc.server.handle", fault.Action{Delay: e10RPCDelay})
	defer fault.Default().Disarm("rpc.server.handle")

	sweep := []struct {
		label string
		rate  float64
	}{
		{"off", -1},
		{"10%", 0.1},
		{"100%", 1.0},
	}
	rep := &E11Report{}
	var base time.Duration
	for _, s := range sweep {
		p50, err := e11Measure(s.rate, opt.ops())
		if err != nil {
			return nil, fmt.Errorf("e11: sampling %s: %w", s.label, err)
		}
		row := E11Row{Label: s.label, SampleRate: s.rate, P50: p50}
		if s.rate < 0 {
			base = p50
		} else if base > 0 {
			row.OverheadPct = 100 * (float64(p50) - float64(base)) / float64(base)
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

// e11SpansPerCommit is a floor on what one 8-participant transaction
// records at full sampling (69: the statement with 8 link RPCs and their
// agent spans, the root, phase 1 with 8 prepares and their fsyncs, phase 2
// with 8 commits).
const e11SpansPerCommit = 64

// e11Measure runs E10's 8-participant parallel-commit measurement under the
// given process-wide sampling rate, restoring the previous tracer
// configuration afterwards. Every leg first runs enough untimed commits to
// overwrite the span ring once, so the timed ones see the tracer's steady
// state — a full ring, every push evicting — not a fresh, empty one.
func e11Measure(rate float64, ops int) (time.Duration, error) {
	prev := obs.DefaultTracerConfig()
	cfg := prev
	cfg.SampleRate = rate
	obs.SetDefaultTracerConfig(cfg)
	defer obs.SetDefaultTracerConfig(prev)
	ring := cfg.SpanCapacity
	if ring <= 0 {
		ring = obs.DefaultSpanCapacity
	}
	return e10Measure(8, 0, ring/e11SpansPerCommit+1, ops)
}

// String renders the report.
func (r *E11Report) String() string {
	t := &table{header: []string{"sampling", "commit p50", "overhead", "shape check"}}
	for _, row := range r.Rows {
		check := "baseline"
		overhead := "-"
		if row.SampleRate >= 0 {
			check = "within a few % of baseline"
			overhead = fmt.Sprintf("%+.1f%%", row.OverheadPct)
		}
		t.add(row.Label, row.P50.Round(time.Microsecond).String(), overhead, check)
	}
	return "E11 — span tracing overhead on the 8-participant commit path\n" + t.String()
}
