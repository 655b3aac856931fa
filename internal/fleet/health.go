package fleet

import (
	"fmt"
	"sort"
	"time"
)

// The thresholds a verdict judges by. A member is bad while a pressure
// gauge sits at or above its limit, while it cannot be scraped, or while
// its windowed wal_sync_seconds median exceeds driftFactor× the fleet
// median (and driftMin, so a 3× blowup of a 20 µs fsync is not an alarm).
// The window statistic is the median, not the p99: the p99 of an 8-sync
// window is its slowest sync, so one slow sync on a healthy member would
// lift the fleet baseline enough to hide a member 16× slower. A window
// with fewer than MinWindowCount observations does not vote. A
// member is flagged after FlagAfter bad verdicts in a row and cleared
// after clearAfter good ones.
const (
	walQueueMax     = 16
	lockPressureMax = 0.9
	replLagMax      = 10000
	driftHist       = "wal_sync_seconds"
	driftQuantile   = 0.5
	driftFactor     = 4
	driftMin        = 2 * time.Millisecond
	MinWindowCount  = 8
	FlagAfter       = 2
	clearAfter      = 3
)

// MemberHealth is one member's line in a verdict. Degraded, the two
// streaks and Reasons are the hysteresis the next verdict reads.
type MemberHealth struct {
	Member   string `json:"member"`
	Degraded bool   `json:"degraded"`
	// Reasons lists the signals bad in this verdict; a flagged member
	// keeps the reasons of its last bad verdict until it clears.
	Reasons      []string `json:"reasons,omitempty"`
	BadStreak    int      `json:"bad_streak"`
	GoodStreak   int      `json:"good_streak"`
	LockPressure float64  `json:"lock_pressure"`
	WALQueue     float64  `json:"wal_queue"`
	ReplLag      float64  `json:"repl_lag"`
	WindowCount  int64    `json:"window_count"`
	WindowP50MS  float64  `json:"window_p50_ms"`
	ScrapeError  string   `json:"scrape_error,omitempty"`
}

// Health is one verdict over the fleet.
type Health struct {
	At       time.Time      `json:"at"`
	Members  []MemberHealth `json:"members"`
	Degraded []string       `json:"degraded"` // never nil in JSON
	// FleetMedianP50MS is the median of the voting members' window
	// medians, the baseline drift is judged against.
	FleetMedianP50MS float64 `json:"fleet_median_p50_ms"`
}

// Verdict judges every member of cur. A member's drift window is what its
// wal_sync_seconds histogram gained between prev and cur (a member absent
// from prev has no window); its streaks and flag continue from was. Verdict
// is a pure function: one verdict's output is the next one's was.
func Verdict(prev, cur FederatedView, was Health) Health {
	last := make(map[string]MemberHealth, len(was.Members))
	for _, m := range was.Members {
		last[m.Member] = m
	}
	type judged struct {
		MemberHealth
		bad   []string
		voted bool
		p50   time.Duration
	}
	var rows []judged
	var p50s []float64
	for _, n := range cur.names() {
		j := judged{MemberHealth: MemberHealth{Member: n}}
		if msg, dead := cur.Errors[n]; dead {
			j.ScrapeError = msg
			j.bad = append(j.bad, "unreachable: "+msg)
			rows = append(rows, j)
			continue
		}
		snap := cur.Members[n]
		j.LockPressure = snap.Gauges["engine_lock_pressure"]
		j.WALQueue = snap.Gauges["wal_group_commit_queue"]
		j.ReplLag = snap.Gauges["repl_lag_records"]
		if j.LockPressure >= lockPressureMax {
			j.bad = append(j.bad, fmt.Sprintf("lock pressure %.2f >= %.2f", j.LockPressure, lockPressureMax))
		}
		if j.WALQueue >= walQueueMax {
			j.bad = append(j.bad, fmt.Sprintf("wal queue %.0f >= %d", j.WALQueue, walQueueMax))
		}
		if j.ReplLag >= replLagMax {
			j.bad = append(j.bad, fmt.Sprintf("repl lag %.0f >= %d", j.ReplLag, replLagMax))
		}
		if before, ok := prev.Members[n]; ok {
			if win, err := snap.Hists[driftHist].Sub(before.Hists[driftHist]); err == nil {
				j.WindowCount = win.Count
				if win.Count >= MinWindowCount {
					j.voted, j.p50 = true, win.Quantile(driftQuantile)
					j.WindowP50MS = ms(j.p50)
					p50s = append(p50s, float64(j.p50))
				}
			}
		}
		rows = append(rows, j)
	}

	var median float64
	if k := len(p50s); k > 0 {
		sort.Float64s(p50s)
		median = p50s[k/2]
		if k%2 == 0 {
			median = (p50s[k/2-1] + p50s[k/2]) / 2
		}
	}
	h := Health{At: cur.At, Degraded: []string{}, FleetMedianP50MS: median / 1e6}
	for _, j := range rows {
		if j.voted && float64(j.p50) > median*driftFactor && j.p50 >= driftMin {
			j.bad = append(j.bad, fmt.Sprintf("%s window p50 %.1fms > %dx fleet median %.1fms",
				driftHist, j.WindowP50MS, driftFactor, h.FleetMedianP50MS))
		}
		m, w := j.MemberHealth, last[j.Member]
		if len(j.bad) > 0 {
			m.BadStreak = w.BadStreak + 1
		} else {
			m.GoodStreak = w.GoodStreak + 1
		}
		m.Degraded = w.Degraded
		if !m.Degraded && m.BadStreak >= FlagAfter {
			m.Degraded = true
		} else if m.Degraded && m.GoodStreak >= clearAfter {
			m.Degraded = false
		}
		m.Reasons = j.bad
		if m.Degraded && len(j.bad) == 0 {
			m.Reasons = w.Reasons
		}
		if m.Degraded {
			h.Degraded = append(h.Degraded, m.Member)
		}
		h.Members = append(h.Members, m)
	}
	return h
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
