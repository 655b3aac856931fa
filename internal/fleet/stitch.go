package fleet

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/obs"
)

// StitchedTrace is one transaction's causal tree assembled from the span
// fragments of every member that took part in it.
type StitchedTrace struct {
	Trace   int64      `json:"trace"`
	Spans   []obs.Span `json:"spans"`
	Members []string   `json:"members"` // members that contributed spans
	// Timeline is the indented tree rendering (RenderTree) of the
	// stitched spans.
	Timeline []string `json:"timeline"`
	// Attribution sums leaf time per bucket (lock_wait, wal_fsync, rpc,
	// ...) across the whole stitched tree.
	Attribution map[string]int64 `json:"attribution,omitempty"`
	// ByMember breaks the bucketed time down per contributing member, the
	// "which member is slow" answer: ByMember["fs2"]["wal_fsync"] is the
	// nanoseconds txn spent in fs2's WAL fsyncs.
	ByMember map[string]map[string]int64 `json:"by_member,omitempty"`
	// Dominant names the single largest member/bucket cell, rendered
	// "member/bucket" (e.g. "fs2/wal_fsync").
	Dominant string `json:"dominant,omitempty"`
	// Errors lists members whose fragments could not be fetched; the
	// stitch covers the rest.
	Errors map[string]string `json:"errors,omitempty"`
}

// spanKey identifies a span's content independent of which member's ring
// returned it: in-stack deployments share one span store, so every member
// returns the same spans and the stitcher must deduplicate them.
type spanKey struct {
	id, parent, start, dur int64
	comp, op               string
}

func keyOf(sp obs.Span) spanKey {
	return spanKey{sp.ID, sp.Parent, sp.StartNS, sp.DurNS, sp.Comp, sp.Op}
}

// Stitch fetches trace's span fragments from every member and assembles
// one tree. Two regimes compose:
//
//   - Shared span store (in-stack): fragments are identical copies —
//     deduplicated by content.
//   - Separate stores (multi-process): span ids are allocated per process
//     and can collide. A colliding id is remapped to a fresh one, with
//     parent references resolved within the owning fragment first (a
//     remapped parent's children follow it); references into other
//     fragments keep their original id, which SpanCtx propagation makes
//     globally meaningful for cross-member RPC edges.
func (p *Plane) Stitch(trace int64) StitchedTrace {
	out := StitchedTrace{Trace: trace, Errors: make(map[string]string)}
	type frag struct {
		name  string
		spans []obs.Span
	}
	var frags []frag
	var maxID int64
	for _, src := range p.sources {
		spans, err := src.Spans(trace)
		if err != nil {
			out.Errors[src.Name()] = err.Error()
			continue
		}
		frags = append(frags, frag{src.Name(), spans})
		for _, sp := range spans {
			maxID = max(maxID, sp.ID)
		}
	}

	seen := make(map[int64]spanKey) // id -> content of the span stitched under it
	for _, f := range frags {
		remap := map[int64]int64{}
		var fresh []obs.Span
		for _, sp := range f.spans {
			if prev, ok := seen[sp.ID]; !ok {
				seen[sp.ID] = keyOf(sp)
			} else if prev == keyOf(sp) {
				continue // identical copy from a shared store
			} else {
				maxID++
				remap[sp.ID] = maxID
			}
			fresh = append(fresh, sp)
		}
		for _, sp := range fresh {
			if nid, ok := remap[sp.ID]; ok {
				sp.ID = nid
			}
			if nid, ok := remap[sp.Parent]; ok {
				sp.Parent = nid
			}
			out.Spans = append(out.Spans, sp)
		}
		if len(fresh) > 0 {
			out.Members = append(out.Members, f.name)
		}
	}
	sort.Slice(out.Spans, func(i, j int) bool {
		if out.Spans[i].StartNS != out.Spans[j].StartNS {
			return out.Spans[i].StartNS < out.Spans[j].StartNS
		}
		return out.Spans[i].ID < out.Spans[j].ID
	})
	sort.Strings(out.Members)
	out.Timeline = obs.RenderTree(out.Spans)
	out.Attribution, out.ByMember = attribute(out.Spans)
	out.Dominant = dominant(out.ByMember)
	if len(out.Errors) == 0 {
		out.Errors = nil
	}
	return out
}

// attribute buckets leaf time (spans with no child spans) by obs.BucketOf,
// fleet-wide and per member. Marks are instants: they carry no time and do
// not make their parent less of a leaf. The member is recovered from the
// span's component prefix ("fs2/engine" → fs2; unprefixed components —
// host, hostdb, rpc — attribute to "host").
func attribute(spans []obs.Span) (map[string]int64, map[string]map[string]int64) {
	hasChild := make(map[int64]bool, len(spans))
	for _, sp := range spans {
		if sp.Parent != 0 && !sp.Mark {
			hasChild[sp.Parent] = true
		}
	}
	total := map[string]int64{}
	byMember := map[string]map[string]int64{}
	for _, sp := range spans {
		if sp.Mark || hasChild[sp.ID] {
			continue
		}
		bucket := obs.BucketOf(sp)
		total[bucket] += sp.DurNS
		m := memberOf(sp.Comp)
		if byMember[m] == nil {
			byMember[m] = map[string]int64{}
		}
		byMember[m][bucket] += sp.DurNS
	}
	return total, byMember
}

// memberOf extracts the member from a span component: Named tracers
// prefix components with "<member>/".
func memberOf(comp string) string {
	if m, _, ok := strings.Cut(comp, "/"); ok {
		return m
	}
	return "host"
}

func dominant(byMember map[string]map[string]int64) string {
	var best string
	var bestNS int64
	keys := make([]string, 0, len(byMember))
	for m := range byMember {
		keys = append(keys, m)
	}
	sort.Strings(keys)
	for _, m := range keys {
		buckets := make([]string, 0, len(byMember[m]))
		for b := range byMember[m] {
			buckets = append(buckets, b)
		}
		sort.Strings(buckets)
		for _, b := range buckets {
			if ns := byMember[m][b]; ns > bestNS {
				bestNS = ns
				best = m + "/" + b
			}
		}
	}
	return best
}

// MergedEdge is one wait-for edge in the fleet graph, annotated with the
// member it was observed on and the canonical node keys the merge joined
// it into.
type MergedEdge struct {
	Member      string `json:"member"`
	Waiter      string `json:"waiter"`
	Holder      string `json:"holder"`
	WaiterTxn   int64  `json:"waiter_txn"`
	HolderTxn   int64  `json:"holder_txn"`
	WaiterTrace int64  `json:"waiter_trace,omitempty"`
	HolderTrace int64  `json:"holder_trace,omitempty"`
}

// WaitGraph is the fleet-merged wait-for graph: every member's edges on
// one node space, plus the cycles closed only by the merge (a wait chain
// spanning two DLFMs is invisible to either member's local detector).
type WaitGraph struct {
	Edges  []MergedEdge      `json:"edges"`
	Cycles [][]string        `json:"cycles,omitempty"`
	Errors map[string]string `json:"errors,omitempty"`
}

// nodeKey canonicalizes a transaction across members: the global trace id
// when the member's tracer had a binding (host txn ids are fleet-unique),
// otherwise the member-scoped local id — engine-local txn ids collide
// across members and must not be joined.
func nodeKey(member string, txn, trace int64) string {
	if trace != 0 {
		return fmt.Sprintf("txn:%d", trace)
	}
	return fmt.Sprintf("%s:%d", member, txn)
}

// MergeWaitGraph fetches every member's wait edges and joins them on
// global trace ids. Unreachable members are reported and skipped.
func (p *Plane) MergeWaitGraph() WaitGraph {
	out := WaitGraph{Errors: make(map[string]string)}
	adj := map[string]map[string]bool{}
	for _, src := range p.sources {
		edges, err := src.WaitEdges()
		if err != nil {
			out.Errors[src.Name()] = err.Error()
			continue
		}
		for _, e := range edges {
			me := MergedEdge{
				Member:      src.Name(),
				Waiter:      nodeKey(src.Name(), e.WaiterTxn, e.WaiterTrace),
				Holder:      nodeKey(src.Name(), e.HolderTxn, e.HolderTrace),
				WaiterTxn:   e.WaiterTxn,
				HolderTxn:   e.HolderTxn,
				WaiterTrace: e.WaiterTrace,
				HolderTrace: e.HolderTrace,
			}
			out.Edges = append(out.Edges, me)
			if adj[me.Waiter] == nil {
				adj[me.Waiter] = map[string]bool{}
			}
			adj[me.Waiter][me.Holder] = true
		}
	}
	sort.Slice(out.Edges, func(i, j int) bool {
		if out.Edges[i].Waiter != out.Edges[j].Waiter {
			return out.Edges[i].Waiter < out.Edges[j].Waiter
		}
		return out.Edges[i].Holder < out.Edges[j].Holder
	})
	out.Cycles = findCycles(adj)
	if len(out.Errors) == 0 {
		out.Errors = nil
	}
	return out
}

// findCycles returns the strongly connected components with a cycle (more
// than one node, or a self-loop) — Tarjan, iterative-friendly sizes here
// so plain recursion is fine.
func findCycles(adj map[string]map[string]bool) [][]string {
	index := map[string]int{}
	low := map[string]int{}
	onStack := map[string]bool{}
	var stack []string
	var cycles [][]string
	next := 0

	var strongconnect func(v string)
	strongconnect = func(v string) {
		index[v] = next
		low[v] = next
		next++
		stack = append(stack, v)
		onStack[v] = true
		for w := range adj[v] {
			if _, seen := index[w]; !seen {
				strongconnect(w)
				if low[w] < low[v] {
					low[v] = low[w]
				}
			} else if onStack[w] && index[w] < low[v] {
				low[v] = index[w]
			}
		}
		if low[v] == index[v] {
			var comp []string
			for {
				w := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				onStack[w] = false
				comp = append(comp, w)
				if w == v {
					break
				}
			}
			if len(comp) > 1 || adj[comp[0]][comp[0]] {
				sort.Strings(comp)
				cycles = append(cycles, comp)
			}
		}
	}

	nodes := make([]string, 0, len(adj))
	for v := range adj {
		nodes = append(nodes, v)
	}
	sort.Strings(nodes)
	for _, v := range nodes {
		if _, seen := index[v]; !seen {
			strongconnect(v)
		}
	}
	// Holders that never wait appear only as edge targets; they cannot be
	// part of a cycle, so seeding from waiters covers everything.
	sort.Slice(cycles, func(i, j int) bool { return cycles[i][0] < cycles[j][0] })
	return cycles
}
