package workload

import (
	"sort"

	"repro/internal/fleet"
	"repro/internal/obs"
)

// This file wires a deployment into the fleet observability plane: one
// fleet.Source per member (host + each DLFM) and per-member admin surfaces
// for multi-process-style HTTP scraping.

// FleetSources wraps every member of the deployment as a fleet source: the
// host first (carrying any extra registries, e.g. the process-wide default
// registry with the storm/workload series), then each DLFM sorted by name.
// A DLFM's source also carries its standby's registry when one exists, so
// repl_lag_records is scored against the right member.
func (st *Stack) FleetSources(extra ...*obs.Registry) []fleet.Source {
	hostRegs := append([]*obs.Registry{st.Host.Obs()}, extra...)
	sources := []fleet.Source{
		fleet.NewLocalSource("host", st.Tracer, st.hostWaitEdges, hostRegs...),
	}
	for _, name := range sortedNames(st.DLFMs) {
		d := st.DLFMs[name]
		regs := []*obs.Registry{d.Obs()}
		if sb := st.Standbys[name]; sb != nil && sb.Server() != d {
			regs = append(regs, sb.Server().Obs())
		}
		sources = append(sources, fleet.NewLocalSource(name, d.Tracer(), d.WaitEdges, regs...))
	}
	return sources
}

// hostWaitEdges renders the host engine's live wait-for edges with trace
// annotations, mirroring core.Server.WaitEdges for the host side. Host
// transactions trace under their own txn id (hostdb roots spans with
// StartRoot(txn, ...)), so the txn id IS the fleet-global trace key.
func (st *Stack) hostWaitEdges() []obs.WaitEdge {
	lm := st.Host.Engine().LockManager()
	if lm == nil {
		return nil
	}
	d := lm.Dump()
	var edges []obs.WaitEdge
	for waiter, holders := range d.WaitsFor {
		for _, holder := range holders {
			edges = append(edges, obs.WaitEdge{
				WaiterTxn:   waiter,
				HolderTxn:   holder,
				WaiterTrace: waiter,
				HolderTrace: holder,
			})
		}
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].WaiterTxn != edges[j].WaiterTxn {
			return edges[i].WaiterTxn < edges[j].WaiterTxn
		}
		return edges[i].HolderTxn < edges[j].HolderTxn
	})
	return edges
}

// allWaitEdges concatenates every member's annotated wait edges — the
// whole-deployment /debug/waitedges payload when the stack is scraped as a
// single source.
func (st *Stack) allWaitEdges() []obs.WaitEdge {
	edges := st.hostWaitEdges()
	for _, name := range sortedNames(st.DLFMs) {
		edges = append(edges, st.DLFMs[name].WaitEdges()...)
	}
	return edges
}

// MemberAdmin builds the admin surface one member would serve if it ran as
// its own process: only that member's registries (plus extra), its tracer
// view, and its wait edges. HTTPSources pointed at these servers exercise
// exactly the multi-process scrape path.
func (st *Stack) MemberAdmin(name string, extra ...*obs.Registry) *obs.Admin {
	if name == "host" {
		return &obs.Admin{
			Registries: append([]*obs.Registry{st.Host.Obs()}, extra...),
			Tracer:     st.Tracer,
			WaitEdges:  st.hostWaitEdges,
			Cluster:    func() any { return st.Host.DescribeClusters() },
		}
	}
	d := st.DLFMs[name]
	if d == nil {
		return &obs.Admin{}
	}
	regs := []*obs.Registry{d.Obs()}
	if sb := st.Standbys[name]; sb != nil && sb.Server() != d {
		regs = append(regs, sb.Server().Obs())
	}
	return &obs.Admin{
		Registries: append(regs, extra...),
		Tracer:     d.Tracer(),
		WaitEdges:  d.WaitEdges,
	}
}
