// Package fleet is the cluster-wide observability plane: it federates the
// per-process obs registries of every DLFM member (and the host) into one
// /cluster/metrics view, stitches span fragments scattered across member
// tracers into single causal trees (/cluster/txn/<id>), merges per-member
// lock wait-for graphs into one fleet graph (/cluster/waitgraph), and
// judges each member's health from its pressure gauges and fsync latency
// drift against the fleet median (/cluster/health).
//
// The paper's deployment unit is a fleet of DLFMs behind one host DB;
// every surface here answers the operator question the per-process admin
// endpoints cannot: "which member is slow, and why".
package fleet

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"time"

	"repro/internal/obs"
)

// Source is one scrapable fleet member: a name plus the three feeds the
// plane federates — metrics, span fragments, and lock wait edges. A member
// in the same process is wrapped by LocalSource; a remote member is
// reached through its admin HTTP endpoint by HTTPSource. Implementations
// must be safe for concurrent use.
type Source interface {
	Name() string
	Metrics() (obs.MetricsSnapshot, error)
	Spans(trace int64) ([]obs.Span, error)
	WaitEdges() ([]obs.WaitEdge, error)
}

// LocalSource scrapes a member living in the same process through direct
// handles — the in-stack (test, bench, single-binary) deployment.
type LocalSource struct {
	name      string
	regs      []*obs.Registry
	tracer    *obs.Tracer
	waitEdges func() []obs.WaitEdge
}

// NewLocalSource wraps in-process handles as a Source. tracer and
// waitEdges may be nil (the member then contributes no spans/edges).
func NewLocalSource(name string, tracer *obs.Tracer, waitEdges func() []obs.WaitEdge, regs ...*obs.Registry) *LocalSource {
	return &LocalSource{name: name, regs: regs, tracer: tracer, waitEdges: waitEdges}
}

func (s *LocalSource) Name() string { return s.name }

func (s *LocalSource) Metrics() (obs.MetricsSnapshot, error) {
	out := obs.NewMetricsSnapshot()
	for _, r := range s.regs {
		if r == nil {
			continue
		}
		snap := r.Export()
		if err := out.Merge(snap); err != nil {
			return out, fmt.Errorf("fleet: %s: %w", s.name, err)
		}
	}
	return out, nil
}

func (s *LocalSource) Spans(trace int64) ([]obs.Span, error) {
	return s.tracer.SpansByTrace(trace), nil
}

func (s *LocalSource) WaitEdges() ([]obs.WaitEdge, error) {
	if s.waitEdges == nil {
		return nil, nil
	}
	return s.waitEdges(), nil
}

// HTTPSource scrapes a member through its admin HTTP endpoint (/metrics,
// /debug/txn/<id>, /debug/waitedges) — the multi-process deployment, where
// each dlfmd runs its own admin server.
type HTTPSource struct {
	name   string
	base   string
	client *http.Client
}

// NewHTTPSource scrapes the member named name at baseURL (e.g.
// "http://127.0.0.1:7118"; a bare host:port is accepted). timeout bounds
// each scrape; zero means 5 s.
func NewHTTPSource(name, baseURL string, timeout time.Duration) *HTTPSource {
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	if !strings.Contains(baseURL, "://") {
		baseURL = "http://" + baseURL
	}
	return &HTTPSource{
		name:   name,
		base:   strings.TrimRight(baseURL, "/"),
		client: &http.Client{Timeout: timeout},
	}
}

func (s *HTTPSource) Name() string { return s.name }

func (s *HTTPSource) get(path string) (*http.Response, error) {
	resp, err := s.client.Get(s.base + path)
	if err != nil {
		return nil, fmt.Errorf("fleet: scrape %s%s: %w", s.name, path, err)
	}
	if resp.StatusCode != http.StatusOK {
		resp.Body.Close()
		return nil, fmt.Errorf("fleet: scrape %s%s: HTTP %d", s.name, path, resp.StatusCode)
	}
	return resp, nil
}

func (s *HTTPSource) Metrics() (obs.MetricsSnapshot, error) {
	resp, err := s.get("/metrics")
	if err != nil {
		return obs.NewMetricsSnapshot(), err
	}
	defer resp.Body.Close()
	return obs.ParsePromText(resp.Body)
}

func (s *HTTPSource) Spans(trace int64) ([]obs.Span, error) {
	var body struct {
		Spans []obs.Span `json:"spans"`
	}
	err := s.getJSON(fmt.Sprintf("/debug/txn/%d", trace), &body)
	return body.Spans, err
}

func (s *HTTPSource) WaitEdges() ([]obs.WaitEdge, error) {
	var body struct {
		Edges []obs.WaitEdge `json:"edges"`
	}
	err := s.getJSON("/debug/waitedges", &body)
	return body.Edges, err
}

func (s *HTTPSource) getJSON(path string, v any) error {
	resp, err := s.get(path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		return fmt.Errorf("fleet: scrape %s%s: %w", s.name, path, err)
	}
	return nil
}
