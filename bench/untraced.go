package main

import (
	"fmt"
	"runtime"
	"sort"
	"time"
)

// outcome is what one run of one workload produced.
type outcome struct {
	workload  string
	seed      int64
	traced    bool
	correct   bool
	problems  []string // correctness violations, empty when correct
	attempted int
	failed    int
	firstErr  error
	m         measurements
	notes     []string // extra lines for the human report (the ledger)
}

// conclude records what the clients saw and gives the verdict: a run is
// correct when no client got a wrong result and no check of the end state
// found a problem. Failed transactions (deadlock victims, timeouts,
// refusals) do not make a run incorrect; they count in failed.
func (o *outcome) conclude(res *passResult, endState []string) {
	o.attempted, o.failed, o.firstErr = res.attempted, res.failed, res.firstErr
	o.problems = append(append([]string(nil), res.problems...), endState...)
	o.correct = len(o.problems) == 0
}

// runUntraced produces the end-to-end metrics. It sets up several times,
// for a steady set-up time. The middle deployment runs the closed loop for
// the given time with no harness tracing, has its end state checked, and is
// crashed once to prove the measured phase's commits durable. The others
// are crashed and recovered for recovery_s while their history is still the
// fixed one set-up leaves — restart replays the log, so after a timed phase
// a faster program would have more to replay and look slower at recovering.
// That puts the recovery cycles in two windows a measured phase apart: a
// neighbour's burst on the shared box covers one of them, not both.
func runUntraced(def *workloadDef, seed int64, seconds float64, sc scale, dataRoot string) (*outcome, error) {
	out := &outcome{workload: def.name, seed: seed, m: measurements{}}
	var setupS, heapMB, recS []float64
	for i := 0; i < sc.setups; i++ {
		// Collect outside the clocks, here and before each recovery: what the
		// previous deployment left behind would otherwise start a collection
		// at a different point of each set-up or cycle, and a 10–40 ms
		// recovery with a collection in it takes a quarter longer.
		runtime.GC()
		start := time.Now()
		d, err := setup(def, seed, sc, dataRoot, false)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setupS = append(setupS, time.Since(start).Seconds())
		// Live heap once the tables are loaded and every cache is warm: the
		// row counts are fixed, so memory a change moves into caches shows
		// here and a faster run (more rows inserted per second) does not.
		heapMB = append(heapMB, liveHeapMB())
		if i == sc.setups/2 {
			err = out.measure(d, seconds)
		} else {
			var cycles []float64
			cycles, err = d.recoveries(sc.recoveries)
			recS = append(recS, cycles...)
		}
		d.close()
		if err != nil {
			return nil, err
		}
	}
	out.m.set("setup_s", median(setupS), len(setupS))
	out.m.set("heap_mb", median(heapMB), len(heapMB))
	// The lower quartile, not the median: interference only ever adds time,
	// and a burst that covers one window shifts half the samples (the median
	// of link_insert's 7 ms cycles moved by up to 50% from run to run).
	sort.Float64s(recS)
	out.m.set("recovery_s", quantile(recS, 0.25), len(recS))
	return out, nil
}

// recoveryWindow cuts a window of recovery cycles short, but not below three:
// paged_durable's restart replays the warm-up's 2,000 transactions from a
// file, 0.4 s a cycle, where the in-memory workloads take 7–25 ms.
const recoveryWindow = 1500 * time.Millisecond

// recoveries times up to n crash/recover cycles on a freshly set-up
// deployment and checks its end state afterwards.
func (d *deployment) recoveries(n int) ([]float64, error) {
	var secs []float64
	begin := time.Now()
	for k := 1; k <= n && (k <= 3 || time.Since(begin) < recoveryWindow); k++ {
		runtime.GC()
		dur, err := d.recoverOnce(int64(k))
		if err != nil {
			return nil, fmt.Errorf("recovery cycle %d: %w", k, err)
		}
		secs = append(secs, dur.Seconds())
	}
	if problems := d.verify(); len(problems) > 0 {
		return nil, fmt.Errorf("after recovery of a fresh set-up: %s", problems[0])
	}
	return secs, nil
}

// measure runs the measured phase on d and judges its outputs.
func (o *outcome) measure(d *deployment, seconds float64) error {
	res := d.pass(passOpts{duration: time.Duration(seconds * float64(time.Second))})
	n := res.committed()
	if n == 0 {
		return fmt.Errorf("no transaction committed: %v", res.firstErr)
	}
	sorted := append([]float64(nil), res.lat...)
	sort.Float64s(sorted)
	rate, cpuMS := res.perSecond()
	if len(rate) < 3 { // a smoke run: too short for per-second medians
		rate, cpuMS = []float64{float64(n) / res.wall.Seconds()}, []float64{res.cpu.Seconds() * 1e3 / float64(n)}
	}
	o.m.set("txn_per_s", median(rate), n)
	o.m.set("txn_p50_ms", quantile(sorted, 0.5), n)
	o.m.set("txn_p99_ms", bandMean(sorted, 0.99, 0.998), n)
	o.m.set("cpu_ms_per_txn", median(cpuMS), n)

	endState := d.verify()
	// Every acknowledged commit must survive a crash.
	if _, err := d.recoverOnce(1); err != nil {
		endState = append(endState, fmt.Sprintf("recovery after the measured phase: %v", err))
	}
	for _, p := range d.verify() {
		endState = append(endState, "after recovery: "+p)
	}
	o.conclude(res, endState)
	return nil
}
