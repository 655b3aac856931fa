package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"strconv"
	"strings"
)

// Admin assembles the HTTP admin surface:
//
//	/metrics            Prometheus text exposition of every registry
//	/debug/locks        live lock-table and waits-for dump
//	/debug/txn/<id>     one transaction: spans and marks, timeline,
//	                    attribution; id 0 is the process events
//	/debug/slow         slow-transaction log (N slowest span trees)
//	/debug/waitgraph    live wait-for graph + flight-recorder history
//	/debug/cluster      placement maps: membership, slot owners, moves
//
// The zero value serves empty responses; populate the fields before Start.
type Admin struct {
	// Registries are scraped in order by /metrics.
	Registries []*Registry
	// Tracer backs /debug/txn and /debug/slow.
	Tracer *Tracer
	// LockDump, when set, supplies the /debug/locks payload (the lock
	// manager's Dump result); it is JSON-encoded as-is.
	LockDump func() any
	// WaitGraph, when set, supplies the live wait-for graph for
	// /debug/waitgraph (typically the lock managers' waits-for edges,
	// merged across processes by the caller).
	WaitGraph func() any
	// Flight supplies the deadlock/timeout victim history for
	// /debug/waitgraph.
	Flight *FlightRecorder
	// Cluster, when set, supplies the /debug/cluster payload (the host's
	// placement maps — membership, per-slot owners, moves in flight).
	Cluster func() any
	// WaitEdges, when set, supplies the machine-readable wait-for edges
	// for /debug/waitedges — each edge carries both the engine-local txn
	// ids and (when the tracer has a binding) the global trace ids, which
	// is what lets a fleet collector join wait chains across members.
	WaitEdges func() []WaitEdge
	// Mounts are extra handlers added to the mux by path prefix; the
	// fleet plane mounts its /cluster/* surface here so one member's
	// admin port can serve the whole-fleet view.
	Mounts map[string]http.Handler
}

// WaitEdge is one waiter→holder edge of a lock wait-for graph, annotated
// with trace ids so edges from different members (whose engine-local txn
// ids collide) can be joined into one fleet-wide graph.
type WaitEdge struct {
	WaiterTxn   int64 `json:"waiter_txn"`
	HolderTxn   int64 `json:"holder_txn"`
	WaiterTrace int64 `json:"waiter_trace,omitempty"`
	HolderTrace int64 `json:"holder_trace,omitempty"`
}

// Handler returns the admin mux.
func (a *Admin) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		bw := bufio.NewWriter(w)
		for _, r := range a.Registries {
			if r == nil {
				continue
			}
			if err := r.WriteProm(bw); err != nil {
				return
			}
		}
		bw.Flush()
	})
	mux.HandleFunc("/debug/locks", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		var dump any
		if a.LockDump != nil {
			dump = a.LockDump()
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", " ")
		enc.Encode(dump) //nolint:errcheck
	})
	mux.HandleFunc("/debug/txn/", func(w http.ResponseWriter, req *http.Request) {
		id := strings.TrimPrefix(req.URL.Path, "/debug/txn/")
		txn, err := strconv.ParseInt(id, 10, 64)
		if err != nil {
			http.Error(w, fmt.Sprintf("bad txn %q: %v", id, err), http.StatusBadRequest)
			return
		}
		spans := a.Tracer.SpansByTrace(txn)
		if spans == nil {
			spans = []Span{}
		}
		payload := map[string]any{
			"txn":         txn,
			"spans":       spans,
			"timeline":    RenderTree(spans),
			"attribution": a.Tracer.Attribution(txn),
		}
		writeJSON(w, payload)
	})
	mux.HandleFunc("/debug/slow", func(w http.ResponseWriter, _ *http.Request) {
		entries := a.Tracer.SlowEntries()
		if entries == nil {
			entries = []SlowEntry{}
		}
		writeJSON(w, entries)
	})
	mux.HandleFunc("/debug/cluster", func(w http.ResponseWriter, _ *http.Request) {
		var desc any
		if a.Cluster != nil {
			desc = a.Cluster()
		}
		writeJSON(w, desc)
	})
	mux.HandleFunc("/debug/waitgraph", func(w http.ResponseWriter, _ *http.Request) {
		var live any
		if a.WaitGraph != nil {
			live = a.WaitGraph()
		}
		history := a.Flight.Entries()
		if history == nil {
			history = []FlightEntry{}
		}
		writeJSON(w, map[string]any{"live": live, "history": history})
	})
	mux.HandleFunc("/debug/waitedges", func(w http.ResponseWriter, _ *http.Request) {
		var edges []WaitEdge
		if a.WaitEdges != nil {
			edges = a.WaitEdges()
		}
		if edges == nil {
			edges = []WaitEdge{}
		}
		writeJSON(w, map[string]any{"edges": edges})
	})
	for path, h := range a.Mounts {
		mux.Handle(path, h)
	}
	return mux
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	enc.Encode(v) //nolint:errcheck
}

// AdminServer is a running admin endpoint.
type AdminServer struct {
	ln  net.Listener
	srv *http.Server
}

// Start listens on addr (e.g. "127.0.0.1:7118") and serves the admin
// endpoints until Close.
func (a *Admin) Start(addr string) (*AdminServer, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: admin listen %s: %w", addr, err)
	}
	srv := &http.Server{Handler: a.Handler()}
	go srv.Serve(ln) //nolint:errcheck
	return &AdminServer{ln: ln, srv: srv}, nil
}

// Addr returns the bound address (for clients and logs).
func (s *AdminServer) Addr() string { return s.ln.Addr().String() }

// Close stops the listener and in-flight handlers.
func (s *AdminServer) Close() error { return s.srv.Close() }
