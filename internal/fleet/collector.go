package fleet

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/obs"
)

// FederatedView is one fleet-wide metrics scrape: the bucket-exact
// aggregate (counters and gauges summed, histograms merged bucket-wise),
// the per-member snapshots it was computed from, and the members that
// could not be scraped this round.
type FederatedView struct {
	At      time.Time                      `json:"at"`
	Agg     obs.MetricsSnapshot            `json:"agg"`
	Members map[string]obs.MetricsSnapshot `json:"members"`
	Errors  map[string]string              `json:"errors,omitempty"`
}

// Federate scrapes every member concurrently and merges the snapshots.
// A scrape is partial-tolerant by design: a member that errors
// (restarting, partitioned, gone) lands in Errors and the aggregate covers
// the rest, so by construction every aggregate counter equals the sum of
// the per-member values in the same view.
func (p *Plane) Federate() FederatedView {
	view := FederatedView{
		At:      time.Now(),
		Agg:     obs.NewMetricsSnapshot(),
		Members: make(map[string]obs.MetricsSnapshot, len(p.sources)),
		Errors:  make(map[string]string),
	}
	snaps := make([]obs.MetricsSnapshot, len(p.sources))
	errs := make([]error, len(p.sources))
	var wg sync.WaitGroup
	for i, src := range p.sources {
		wg.Add(1)
		go func(i int, src Source) {
			defer wg.Done()
			snaps[i], errs[i] = src.Metrics()
		}(i, src)
	}
	wg.Wait()
	for i, src := range p.sources {
		if errs[i] != nil {
			view.Errors[src.Name()] = errs[i].Error()
			continue
		}
		view.Members[src.Name()] = snaps[i]
		if err := view.Agg.Merge(snaps[i]); err != nil {
			// Mismatched histogram bounds: those series are skipped but the
			// member's other metrics already merged. Surface it.
			view.Errors[src.Name()] = err.Error()
		}
	}
	return view
}

// names returns every member of the view, reachable or not, sorted.
func (v FederatedView) names() []string {
	out := make([]string, 0, len(v.Members)+len(v.Errors))
	for n := range v.Members {
		out = append(out, n)
	}
	for n := range v.Errors {
		if _, ok := v.Members[n]; !ok {
			out = append(out, n)
		}
	}
	sort.Strings(out)
	return out
}

// series lays the view out for obs.WritePromText: the unlabelled
// aggregate, one member="<name>" copy per reachable member, and a
// fleet_member_up 0/1 gauge per member so dashboards see partial views.
func (v FederatedView) series() []obs.Series {
	out := []obs.Series{{Snap: v.Agg}}
	var up []obs.Series
	for _, n := range v.names() {
		label := []string{fmt.Sprintf("member=%q", n)}
		if snap, ok := v.Members[n]; ok {
			out = append(out, obs.Series{Labels: label, Snap: snap})
		}
		val := 1.0
		if _, dead := v.Errors[n]; dead {
			val = 0
		}
		up = append(up, obs.Series{Labels: label, Snap: obs.MetricsSnapshot{
			Gauges: map[string]float64{"fleet_member_up": val},
		}})
	}
	return append(out, up...)
}
