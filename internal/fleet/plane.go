package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Plane is the fleet observability surface over a fixed set of member
// sources, served under /cluster/ (mount Handler on a member's admin
// server through obs.Admin.Mounts):
//
//	/cluster/metrics    federated Prometheus view: aggregate + per-member
//	/cluster/txn/<id>   stitched cross-member span tree for one txn
//	/cluster/waitgraph  fleet-merged wait-for graph with cycles
//	/cluster/health     the last verdict (?check=1 takes a fresh one)
type Plane struct {
	sources []Source

	checkMu sync.Mutex // serializes checks, scrape included
	mu      sync.Mutex // guards view and health; never held across I/O
	view    FederatedView
	health  Health
}

// NewPlane builds a plane over sources.
func NewPlane(sources ...Source) *Plane { return &Plane{sources: sources} }

// Check federates the fleet and takes a verdict on the window since the
// previous check. dlfmd calls it on a ticker; /cluster/health?check=1
// calls it on demand.
// A check waiting on a slow member's scrape blocks only the next check:
// readers of the last verdict never wait on I/O.
func (p *Plane) Check() Health {
	p.checkMu.Lock()
	defer p.checkMu.Unlock()
	cur := p.Federate()
	p.mu.Lock()
	defer p.mu.Unlock()
	p.health = Verdict(p.view, cur, p.health)
	p.view = cur
	return p.health
}

func (p *Plane) last() Health {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.health
}

// Handler returns the /cluster/* mux.
func (p *Plane) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		own := obs.Series{Labels: []string{`plane="fleet"`}, Snap: obs.MetricsSnapshot{
			Gauges: map[string]float64{"health_degraded_members": float64(len(p.last().Degraded))},
		}}
		obs.WritePromText(w, append([]obs.Series{own}, p.Federate().series()...)...) //nolint:errcheck
	})
	mux.HandleFunc("/cluster/txn/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/cluster/txn/")
		trace, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad txn %q: %v", id, err), http.StatusBadRequest)
			return
		}
		writeJSON(w, p.Stitch(trace))
	})
	mux.HandleFunc("/cluster/waitgraph", func(w http.ResponseWriter, _ *http.Request) {
		writeJSON(w, p.MergeWaitGraph())
	})
	mux.HandleFunc("/cluster/health", func(w http.ResponseWriter, req *http.Request) {
		h := p.last()
		if req.URL.Query().Get("check") == "1" || h.At.IsZero() {
			h = p.Check()
		}
		writeJSON(w, h)
	})
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck
}
