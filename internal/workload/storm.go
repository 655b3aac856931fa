package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"repro/internal/hostdb"
	"repro/internal/obs"
)

// Storm mode: an OPEN-LOOP load harness. The closed-loop runner's clients
// wait for each transaction before starting the next, so when the system
// slows down the offered load politely slows with it — saturation is
// invisible. Real applications do not cooperate like that: requests arrive
// at whatever rate the outside world produces them. The storm harness
// generates logical sessions with Poisson inter-arrivals at a configured
// rate, multiplexes them over a bounded pool of host connections, and
// measures each one from ARRIVAL to completion — queueing time included, the
// latency a caller actually sees. Past saturation the arrival queue grows
// without bound unless the host sheds; the harness exists to measure exactly
// that: throughput, shed rate, and admitted-transaction p99 against an SLO,
// with the hostdb admission controller on or off.

// StormConfig controls one open-loop storm run.
type StormConfig struct {
	// Rate is the mean arrival rate in transactions per second; arrivals are
	// Poisson (exponential inter-arrival times from Seed).
	Rate float64
	// Sessions is the number of logical sessions to generate — each is one
	// application transaction. Zero derives Rate*Duration.
	Sessions int
	// Pool bounds the concurrent host connections the logical sessions
	// multiplex over (default 64) — the paper's agent pool, host-side.
	Pool int
	// SLO is the p99 latency target for ADMITTED transactions; Result.SLOMet
	// reports whether the run stayed inside it. Zero skips the check.
	SLO time.Duration
	// Duration bounds arrival generation when Sessions is zero; with
	// Sessions set it is ignored (the run ends when all sessions finish).
	Duration time.Duration
	Seed     int64
	Mix      Mix
	// Server is the target — a DLFM name or a cluster name (defaults like
	// the runner: the cluster if there is one).
	Server      string
	Table       string
	PreloadRows int

	// KillInterval/DownTime/DropInterval arm the chaos injector during the
	// storm (all zero = no chaos). KillExclude works as in ChaosConfig.
	KillInterval time.Duration
	DownTime     time.Duration
	DropInterval time.Duration
	KillExclude  []string

	// SkipConsistency skips the post-run drain and invariant check —
	// calibration legs that only need a throughput number use it.
	SkipConsistency bool
}

// StormResult reports the open-loop run.
type StormResult struct {
	Elapsed time.Duration

	Arrivals  int64 // logical sessions generated
	Commits   int64 // admitted and committed
	Shed      int64 // refused at admission (ErrOverload)
	Rollbacks int64 // admitted but rolled back (deadlock/timeout/statement)

	OfferedRate float64 // arrivals per second actually generated
	Throughput  float64 // commits per second
	ShedRate    float64 // shed / arrivals

	// Latency of admitted+committed transactions, arrival to completion
	// (queueing included).
	LatencyP50 time.Duration
	LatencyP95 time.Duration
	LatencyP99 time.Duration
	LatencyMax time.Duration
	SLO        time.Duration
	SLOMet     bool

	Kills    int64
	DropArms int64

	IndoubtsResolved int
	LeftoverIndoubts int
	Violations       []string
}

// String renders the result as the harness prints report rows.
func (r StormResult) String() string {
	return fmt.Sprintf(
		"arrivals=%d commits=%d shed=%d rollbacks=%d | offered=%.0f/s tput=%.0f/s shed=%.1f%% | p50=%s p95=%s p99=%s max=%s sloMet=%v",
		r.Arrivals, r.Commits, r.Shed, r.Rollbacks,
		r.OfferedRate, r.Throughput, 100*r.ShedRate,
		r.LatencyP50.Round(time.Microsecond), r.LatencyP95.Round(time.Microsecond),
		r.LatencyP99.Round(time.Microsecond), r.LatencyMax.Round(time.Microsecond), r.SLOMet)
}

// RunStorm executes one open-loop storm against st. The returned error
// covers harness failures; SLO misses and invariant violations are reported
// in the result.
func RunStorm(st *Stack, cfg StormConfig) (StormResult, error) {
	if cfg.Rate <= 0 {
		return StormResult{}, fmt.Errorf("workload: storm needs an arrival rate")
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Sessions <= 0 {
		cfg.Sessions = int(cfg.Rate * cfg.Duration.Seconds())
		if cfg.Sessions <= 0 {
			cfg.Sessions = 1
		}
	}
	if cfg.Pool <= 0 {
		cfg.Pool = 64
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix()
	}
	if cfg.Table == "" {
		cfg.Table = "storm"
	}

	// Storm metrics ride on the process registry: a host admin surface that
	// carries it (MemberAdmin's extra registries) serves them beside the
	// host's own series, where the fleet plane scrapes them.
	reg := obs.Default()
	var arrivals, commits, shed, rollbacks obs.Counter
	reg.RegisterCounter("storm_arrivals_total", &arrivals)
	reg.RegisterCounter("storm_commits_total", &commits)
	reg.RegisterCounter("storm_shed_total", &shed)
	reg.RegisterCounter("storm_rollbacks_total", &rollbacks)
	lat := obs.NewHistogram()    // arrival→completion, committed only
	queueH := obs.NewHistogram() // arrival→worker pickup, every admitted arrival
	reg.RegisterHistogram("storm_txn_seconds", lat)
	reg.RegisterHistogram("storm_queue_seconds", queueH)

	r, err := NewRunner(st, Config{
		Clients:     cfg.Pool,
		Mix:         cfg.Mix,
		Server:      cfg.Server,
		Table:       cfg.Table,
		PathPrefix:  "/" + cfg.Table,
		PreloadRows: cfg.PreloadRows,
		Seed:        cfg.Seed,
	})
	if err != nil {
		return StormResult{}, err
	}
	if err := r.Prepare(); err != nil {
		return StormResult{}, err
	}

	// The arrival queue is sized for every session, so the generator NEVER
	// blocks on slow workers — that is what makes the loop open. Queue depth
	// is the saturation gauge.
	queue := make(chan time.Time, cfg.Sessions)
	reg.GaugeFunc("storm_queue_depth", func() float64 { return float64(len(queue)) })

	var kills, drops obs.Counter
	stopInjector := func() {}
	if cfg.KillInterval > 0 || cfg.DropInterval > 0 {
		names := sortedNames(st.DLFMs)
		excluded := make(map[string]bool, len(cfg.KillExclude))
		for _, n := range cfg.KillExclude {
			excluded[n] = true
		}
		killable := make([]string, 0, len(names))
		for _, n := range names {
			if !excluded[n] {
				killable = append(killable, n)
			}
		}
		if cfg.DownTime <= 0 {
			cfg.DownTime = maxDur(cfg.KillInterval/3, 50*time.Millisecond)
		}
		stopInjector = startInjector(st, injectorConfig{
			Seed:         cfg.Seed,
			KillInterval: cfg.KillInterval,
			DownTime:     cfg.DownTime,
			DropInterval: cfg.DropInterval,
			Killable:     killable,
		}, &kills, &drops)
	}

	start := time.Now()

	// Generator: one goroutine, exponential inter-arrivals at Rate. Sleeping
	// per arrival would cap the rate at the scheduler's wake-up granularity,
	// so it sleeps toward each arrival's ABSOLUTE due time and publishes
	// every arrival that has come due — bursts emerge naturally when the
	// sleep overshoots, exactly as a real Poisson stream bunches.
	genDone := make(chan time.Duration, 1)
	go func() {
		defer close(queue)
		rng := rand.New(rand.NewSource(cfg.Seed*104729 + 7))
		next := start
		for i := 0; i < cfg.Sessions; i++ {
			next = next.Add(expDur(rng, cfg.Rate))
			if d := time.Until(next); d > 0 {
				time.Sleep(d)
			}
			arrivals.Add(1)
			queue <- next
		}
		genDone <- time.Since(start)
	}()

	// Workers: the bounded session pool. Each owns one host connection and
	// serves queued logical sessions back to back.
	var wg sync.WaitGroup
	errCh := make(chan error, cfg.Pool)
	for w := 0; w < cfg.Pool; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			cs := &clientState{
				rng:  rand.New(rand.NewSource(cfg.Seed + int64(w)*31)),
				sess: st.Host.Session(),
			}
			defer cs.sess.Close()
			for arrived := range queue {
				queueH.Observe(time.Since(arrived))
				_, err := r.oneOp(cs)
				switch {
				case err == nil, errors.Is(err, hostdb.ErrCommitUnacked):
					commits.Add(1)
					lat.Observe(time.Since(arrived))
				case errors.Is(err, hostdb.ErrOverload):
					// Refused at the door: nothing started, fail fast. The
					// open-loop client's retry is a future arrival, not a
					// tight loop here.
					shed.Add(1)
				case errors.Is(err, hostdb.ErrTxnRolledBack),
					errors.Is(err, hostdb.ErrStatement),
					errors.Is(err, hostdb.ErrOutcomeUnknown):
					rollbacks.Add(1)
					if cs.sess.TxnID() != 0 {
						cs.sess.Rollback()
					}
				default:
					errCh <- fmt.Errorf("storm worker %d: %w", w, err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	stopInjector()
	for _, name := range sortedNames(st.DLFMs) {
		st.Restart(name)
	}
	close(errCh)
	for err := range errCh {
		return StormResult{}, err
	}

	elapsed := time.Since(start)
	res := StormResult{
		Elapsed:   elapsed,
		Arrivals:  arrivals.Load(),
		Commits:   commits.Load(),
		Shed:      shed.Load(),
		Rollbacks: rollbacks.Load(),
		SLO:       cfg.SLO,
		Kills:     kills.Load(),
		DropArms:  drops.Load(),
	}
	// The offered rate is measured over the GENERATION window — by the time
	// the last worker finishes, an overloaded run has spent extra wall-clock
	// draining the queue, and folding that in would understate the offered
	// load precisely when it matters.
	if genSecs := (<-genDone).Seconds(); genSecs > 0 {
		res.OfferedRate = float64(res.Arrivals) / genSecs
	}
	if secs := elapsed.Seconds(); secs > 0 {
		res.Throughput = float64(res.Commits) / secs
	}
	if res.Arrivals > 0 {
		res.ShedRate = float64(res.Shed) / float64(res.Arrivals)
	}
	if sum := lat.Summarize(); sum.Count > 0 {
		res.LatencyP50 = sum.P50
		res.LatencyP95 = sum.P95
		res.LatencyP99 = sum.P99
		res.LatencyMax = sum.Max
	}
	res.SLOMet = cfg.SLO <= 0 || (res.Commits > 0 && res.LatencyP99 <= cfg.SLO)

	if cfg.SkipConsistency {
		return res, nil
	}
	var drainErr error
	res.IndoubtsResolved, res.LeftoverIndoubts, drainErr = drainIndoubts(st)
	if drainErr != nil {
		return res, fmt.Errorf("workload: storm drain: %w", drainErr)
	}
	if res.LeftoverIndoubts > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d prepared transactions remain after drain", res.LeftoverIndoubts))
	}
	vs, err := CheckConsistency(st, cfg.Table)
	if err != nil {
		return res, fmt.Errorf("workload: storm consistency check: %w", err)
	}
	res.Violations = append(res.Violations, vs...)
	return res, nil
}

// expDur draws an exponential inter-arrival time for a Poisson process at
// rate per second.
func expDur(rng *rand.Rand, rate float64) time.Duration {
	d := time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	if d > math.MaxInt64/2 {
		d = math.MaxInt64 / 2
	}
	return d
}
