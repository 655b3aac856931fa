package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// HealthConfig tunes the watchdog. Zero values take the defaults noted on
// each field.
type HealthConfig struct {
	// Interval between health checks when the watchdog runs its own
	// ticker (Start). Default 1s.
	Interval time.Duration
	// WALQueueMax flags a member whose wal_group_commit_queue gauge sits
	// at or above this depth — the disk cannot drain the commit arrival
	// rate. Default 16.
	WALQueueMax float64
	// LockPressureMax flags a member whose engine_lock_pressure gauge
	// (held locks / lock-list cap) reaches this fraction. Default 0.9.
	LockPressureMax float64
	// ReplLagMax flags a member whose repl_lag_records gauge reaches this
	// many unshipped records. Default 10000.
	ReplLagMax float64
	// DriftHist is the latency histogram watched for drift, per member.
	// Default "wal_sync_seconds" (the log-device health signal).
	DriftHist string
	// DriftFactor flags a member whose windowed DriftHist p99 exceeds
	// this multiple of the fleet median. Default 4.
	DriftFactor float64
	// DriftMin is the absolute p99 floor below which drift is never
	// flagged (a 3x blowup of a 20µs fsync is noise). Default 2ms.
	DriftMin time.Duration
	// MinWindowCount is the minimum number of observations a member's
	// window needs before its drift is judged. Default 8.
	MinWindowCount int64
	// FlagAfter flags a member only after this many consecutive bad
	// checks; ClearAfter clears only after this many consecutive good
	// ones (hysteresis against flapping). Defaults 2 and 3.
	FlagAfter  int
	ClearAfter int
	// SLOTarget, when set, computes an error-budget burn rate from the
	// fleet-aggregated SLOHist: the fraction of windowed observations
	// over the target, divided by SLOBudget. Burn rate 1.0 means latency
	// violations are consuming exactly the allowed budget; >1 means the
	// SLO is burning down.
	SLOTarget time.Duration
	// SLOBudget is the allowed violating fraction. Default 0.01.
	SLOBudget float64
	// SLOHist is the latency series the SLO is defined over. Default
	// "storm_txn_seconds" (the open-loop workload's arrival-to-completion
	// latency).
	SLOHist string
	// OnChange, when set, fires on every member flag/clear transition —
	// the hook the host router uses to deprioritize degraded members.
	OnChange func(member string, degraded bool, reason string)
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Interval <= 0 {
		c.Interval = time.Second
	}
	if c.WALQueueMax <= 0 {
		c.WALQueueMax = 16
	}
	if c.LockPressureMax <= 0 {
		c.LockPressureMax = 0.9
	}
	if c.ReplLagMax <= 0 {
		c.ReplLagMax = 10000
	}
	if c.DriftHist == "" {
		c.DriftHist = "wal_sync_seconds"
	}
	if c.DriftFactor <= 0 {
		c.DriftFactor = 4
	}
	if c.DriftMin <= 0 {
		c.DriftMin = 2 * time.Millisecond
	}
	if c.MinWindowCount <= 0 {
		c.MinWindowCount = 8
	}
	if c.FlagAfter <= 0 {
		c.FlagAfter = 2
	}
	if c.ClearAfter <= 0 {
		c.ClearAfter = 3
	}
	if c.SLOBudget <= 0 {
		c.SLOBudget = 0.01
	}
	if c.SLOHist == "" {
		c.SLOHist = "storm_txn_seconds"
	}
	return c
}

// MemberHealth is one member's score in a health report.
type MemberHealth struct {
	Member   string `json:"member"`
	Degraded bool   `json:"degraded"`
	// Reasons lists the signals currently bad for this member (empty for
	// a healthy one); a flagged member keeps its flagging reasons until
	// cleared.
	Reasons      []string `json:"reasons,omitempty"`
	LockPressure float64  `json:"lock_pressure"`
	WALQueue     float64  `json:"wal_queue"`
	ReplLag      float64  `json:"repl_lag"`
	WindowCount  int64    `json:"window_count"`
	WindowP99MS  float64  `json:"window_p99_ms"`
	ScrapeError  string   `json:"scrape_error,omitempty"`
}

// HealthReport is one watchdog evaluation of the whole fleet.
type HealthReport struct {
	At       time.Time      `json:"at"`
	Members  []MemberHealth `json:"members"`
	Degraded []string       `json:"degraded"` // never nil in JSON
	// FleetMedianP99MS is the cross-member median of the windowed drift
	// p99 — the baseline drift is judged against.
	FleetMedianP99MS float64 `json:"fleet_median_p99_ms"`
	// SLOBurnRate is the error-budget burn rate of the windowed SLO
	// series (0 when no SLOTarget is configured or the window is empty).
	SLOBurnRate float64 `json:"slo_burn_rate"`
	// SLOWindowCount/SLOWindowBad are the observations behind the rate.
	SLOWindowCount int64 `json:"slo_window_count"`
	SLOWindowBad   int64 `json:"slo_window_bad"`
}

// memberState is the watchdog's per-member hysteresis memory.
type memberState struct {
	flagged    bool
	badStreak  int
	goodStreak int
	reasons    []string
	prevDrift  obs.HistogramData
}

// Watchdog periodically federates the fleet's metrics and scores each
// member: pressure gauges (lock list, WAL group-commit queue), replication
// lag, and commit-latency drift against the fleet median. Flag/clear
// transitions carry hysteresis and fire OnChange, which is how a degraded
// member reaches the host router.
type Watchdog struct {
	c   *Collector
	cfg HealthConfig

	mu      sync.Mutex
	members map[string]*memberState
	prevSLO obs.HistogramData
	last    HealthReport
	stop    chan struct{}

	checks obs.Counter
	flags  obs.Counter
	clears obs.Counter
}

// NewWatchdog builds a watchdog over the collector's member set.
func NewWatchdog(c *Collector, cfg HealthConfig) *Watchdog {
	return &Watchdog{c: c, cfg: cfg.withDefaults(), members: make(map[string]*memberState)}
}

// Instrument exposes the watchdog's state on reg (health_* names).
func (w *Watchdog) Instrument(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.RegisterCounter("health_checks_total", &w.checks)
	reg.RegisterCounter("health_flags_total", &w.flags)
	reg.RegisterCounter("health_clears_total", &w.clears)
	reg.GaugeFunc("health_degraded_members", func() float64 {
		return float64(len(w.Degraded()))
	})
	reg.GaugeFunc("fleet_slo_burn_rate", func() float64 {
		w.mu.Lock()
		defer w.mu.Unlock()
		return w.last.SLOBurnRate
	})
}

// Check runs one evaluation pass: scrape, score, update hysteresis, fire
// OnChange for transitions, and return the report. Start calls it on a
// ticker; tests and one-shot probes call it directly.
func (w *Watchdog) Check() HealthReport {
	view := w.c.Federate()
	w.checks.Inc()

	type judged struct {
		health  MemberHealth
		bad     []string
		hasWin  bool
		winP99  time.Duration
		current obs.HistogramData
	}
	names := make([]string, 0, len(view.Members)+len(view.Errors))
	for n := range view.Members {
		names = append(names, n)
	}
	for n := range view.Errors {
		if _, ok := view.Members[n]; !ok {
			names = append(names, n)
		}
	}
	sort.Strings(names)

	w.mu.Lock()
	defer w.mu.Unlock()

	rows := make([]judged, 0, len(names))
	var p99s []float64
	for _, n := range names {
		st := w.members[n]
		if st == nil {
			st = &memberState{}
			w.members[n] = st
		}
		j := judged{health: MemberHealth{Member: n}}
		if errStr, dead := view.Errors[n]; dead {
			j.health.ScrapeError = errStr
			j.bad = append(j.bad, "unreachable: "+errStr)
			rows = append(rows, j)
			continue
		}
		snap := view.Members[n]
		j.health.LockPressure = snap.Gauges["engine_lock_pressure"]
		j.health.WALQueue = snap.Gauges["wal_group_commit_queue"]
		j.health.ReplLag = snap.Gauges["repl_lag_records"]
		if j.health.LockPressure >= w.cfg.LockPressureMax {
			j.bad = append(j.bad, fmt.Sprintf("lock pressure %.2f >= %.2f", j.health.LockPressure, w.cfg.LockPressureMax))
		}
		if j.health.WALQueue >= w.cfg.WALQueueMax {
			j.bad = append(j.bad, fmt.Sprintf("wal queue %.0f >= %.0f", j.health.WALQueue, w.cfg.WALQueueMax))
		}
		if j.health.ReplLag >= w.cfg.ReplLagMax {
			j.bad = append(j.bad, fmt.Sprintf("repl lag %.0f >= %.0f", j.health.ReplLag, w.cfg.ReplLagMax))
		}
		j.current = snap.Hists[w.cfg.DriftHist]
		if win, err := j.current.Sub(st.prevDrift); err == nil {
			j.health.WindowCount = win.Count
			if win.Count >= w.cfg.MinWindowCount {
				j.hasWin = true
				j.winP99 = win.Quantile(0.99)
				j.health.WindowP99MS = float64(j.winP99.Nanoseconds()) / 1e6
				p99s = append(p99s, float64(j.winP99))
			}
		}
		rows = append(rows, j)
	}

	report := HealthReport{At: view.At, Degraded: []string{}}

	// Drift baseline: the fleet median of the windowed p99s. Members with
	// idle windows simply don't vote.
	var median float64
	if len(p99s) > 0 {
		sort.Float64s(p99s)
		median = p99s[len(p99s)/2]
		if len(p99s)%2 == 0 {
			median = (p99s[len(p99s)/2-1] + p99s[len(p99s)/2]) / 2
		}
	}
	report.FleetMedianP99MS = median / 1e6

	for i := range rows {
		j := &rows[i]
		st := w.members[j.health.Member]
		if j.hasWin && float64(j.winP99) > median*w.cfg.DriftFactor && j.winP99 >= w.cfg.DriftMin {
			j.bad = append(j.bad, fmt.Sprintf("%s window p99 %.1fms > %.0fx fleet median %.1fms",
				w.cfg.DriftHist, j.health.WindowP99MS, w.cfg.DriftFactor, report.FleetMedianP99MS))
		}
		// Window consumed: next check diffs against this scrape.
		if j.health.ScrapeError == "" {
			st.prevDrift = j.current
		}

		if len(j.bad) > 0 {
			st.badStreak++
			st.goodStreak = 0
			st.reasons = j.bad
		} else {
			st.goodStreak++
			st.badStreak = 0
		}
		if !st.flagged && st.badStreak >= w.cfg.FlagAfter {
			st.flagged = true
			w.flags.Inc()
			if w.cfg.OnChange != nil {
				w.cfg.OnChange(j.health.Member, true, joinReasons(st.reasons))
			}
		} else if st.flagged && st.goodStreak >= w.cfg.ClearAfter {
			st.flagged = false
			st.reasons = nil
			w.clears.Inc()
			if w.cfg.OnChange != nil {
				w.cfg.OnChange(j.health.Member, false, "recovered")
			}
		}
		j.health.Degraded = st.flagged
		if st.flagged {
			j.health.Reasons = st.reasons
			report.Degraded = append(report.Degraded, j.health.Member)
		} else {
			j.health.Reasons = j.bad
		}
		report.Members = append(report.Members, j.health)
	}

	// SLO burn rate over the windowed fleet-aggregate latency series.
	if w.cfg.SLOTarget > 0 {
		cur := view.Agg.Hists[w.cfg.SLOHist]
		if win, err := cur.Sub(w.prevSLO); err == nil && win.Count > 0 {
			bad := countAbove(win, int64(w.cfg.SLOTarget))
			report.SLOWindowCount = win.Count
			report.SLOWindowBad = bad
			report.SLOBurnRate = (float64(bad) / float64(win.Count)) / w.cfg.SLOBudget
		}
		w.prevSLO = cur
	}

	w.last = report
	return report
}

// countAbove counts observations in buckets lying entirely above ns: the
// conservative (under-) count of SLO violations bucket resolution allows.
func countAbove(d obs.HistogramData, ns int64) int64 {
	var n int64
	for i := range d.BoundsNS {
		lower := int64(0)
		if i > 0 {
			lower = d.BoundsNS[i-1]
		}
		if lower >= ns {
			n += d.BucketCounts[i]
		}
	}
	if len(d.BucketCounts) > len(d.BoundsNS) {
		lower := int64(0)
		if len(d.BoundsNS) > 0 {
			lower = d.BoundsNS[len(d.BoundsNS)-1]
		}
		if lower >= ns {
			n += d.BucketCounts[len(d.BucketCounts)-1]
		}
	}
	return n
}

func joinReasons(rs []string) string {
	out := ""
	for i, r := range rs {
		if i > 0 {
			out += "; "
		}
		out += r
	}
	return out
}

// Report returns the most recent check's report (zero before the first).
func (w *Watchdog) Report() HealthReport {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.last
}

// Degraded returns the sorted currently-flagged member set.
func (w *Watchdog) Degraded() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	var out []string
	for n, st := range w.members {
		if st.flagged {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// Start runs Check on the configured interval until Stop.
func (w *Watchdog) Start() {
	w.mu.Lock()
	if w.stop != nil {
		w.mu.Unlock()
		return
	}
	stop := make(chan struct{})
	w.stop = stop
	w.mu.Unlock()
	go func() {
		t := time.NewTicker(w.cfg.Interval)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				w.Check()
			}
		}
	}()
}

// Stop halts the ticker started by Start. Safe to call when not running.
func (w *Watchdog) Stop() {
	w.mu.Lock()
	stop := w.stop
	w.stop = nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
	}
}
