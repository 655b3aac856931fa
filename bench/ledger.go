package main

import (
	"fmt"
	"time"

	"repro/internal/hostdb"
	"repro/internal/rpc"
	"repro/internal/value"
	"repro/internal/workload"
)

// ledger peels one link transaction like an onion, with one client on a
// fresh default stack, and says where its time goes:
//
//	X  the full hostdb transaction (INSERT of one DATALINK row + Commit)
//	R  the DLFM requests that transaction sends — begin, link, prepare,
//	   commit — through an rpc.Client to the live DLFM
//	C  the same requests straight into the agent's Handle
//
// hostdb is X − R (the host's parse, its own engine work, the outcome row
// and its forced log write); rpc is the four calls at the no-op round-trip
// cost of the direct drive — an estimate made in isolation, which is what
// keeps the coverage from being 1 by construction; C splits into engine,
// lock and wal at their direct-drive unit costs times the counts the DLFM's
// own counters report per transaction, and core is what remains of C.
// Coverage is the sum of the six rows over X.
func ledger(m measurements, costs engineCosts, budget time.Duration) ([]string, error) {
	st, err := workload.NewStack(workload.StackConfig{Servers: []string{"fs1"}})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	if err := st.Host.CreateTable(`CREATE TABLE docs (id BIGINT NOT NULL, owner BIGINT, doc VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc"}); err != nil {
		return nil, err
	}
	if _, err := st.Host.Engine().Connect().Exec(`CREATE UNIQUE INDEX docs_id ON docs (id)`); err != nil {
		return nil, err
	}
	fs := st.FS["fs1"]
	path := func(layer string, i int) string { return fmt.Sprintf("/ledger/%s/f%08d", layer, i) }
	create := func(layer string) func(int) error {
		return func(i int) error { return fs.Create(path(layer, i), "app", []byte("x")) }
	}

	s := st.Host.Session()
	defer s.Close()
	full := func(i int) error {
		if _, err := s.Exec(sqlInsert, value.Int(int64(i+1)), value.Int(0), value.Str(hostdb.URL("fs1", path("x", i)))); err != nil {
			return err
		}
		return s.Commit()
	}
	// Warm every layer below before timing any of them.
	for i := 0; i < 200; i++ {
		if err := create("x")(i); err != nil {
			return nil, err
		}
		if err := full(i); err != nil {
			return nil, err
		}
	}
	x, err := drive(budget*4, 1, func(i int) error { return create("x")(i + 200) }, func(i int) error { return full(i + 200) })
	if err != nil {
		return nil, err
	}

	const grp = 1 << 30
	client, err := st.Dial("fs1")
	if err != nil {
		return nil, err
	}
	defer client.Close()
	if err := caller(client.Call).createGroup(st.Host.NextTxn(), grp); err != nil {
		return nil, err
	}
	r, err := drive(budget*4, 1, create("r"), func(i int) error {
		return caller(client.Call).agentTxn(st.Host.NextTxn(), true, path("r", i), grp)
	})
	if err != nil {
		return nil, err
	}

	dl := st.DLFMs["fs1"]
	agent := dl.NewAgent()
	defer agent.Close()
	handle := caller(func(req any) (rpc.Response, error) { return agent.Handle(req), nil })
	e0, syncs0 := dl.DB().Stats(), dl.DB().WAL().Stats().Syncs
	c, err := drive(budget*4, 1, create("c"), func(i int) error {
		return handle.agentTxn(st.Host.NextTxn(), true, path("c", i), grp)
	})
	if err != nil {
		return nil, err
	}
	e1, syncs1 := dl.DB().Stats(), dl.DB().WAL().Stats().Syncs
	per := func(delta int64) float64 { return float64(delta) / float64(c.n) }

	stmt := func(d driven) float64 { return max(0, d.ns-costs.commitNS) }
	engineGross := per(e1.Selects-e0.Selects)*stmt(costs.lookup) +
		per(e1.Inserts-e0.Inserts)*costs.stmtNS +
		per(e1.Updates-e0.Updates)*stmt(costs.update) +
		per(e1.Deletes-e0.Deletes)*stmt(costs.del) +
		per(e1.Commits-e0.Commits)*costs.commitNS
	lockNS := per(e1.Lock.Acquisitions-e0.Lock.Acquisitions) * m["lock.acquire_release_ns"].value
	walNS := per(e1.Log.Appends-e0.Log.Appends)*m["wal.append_ns"].value +
		per(syncs1-syncs0)*m["wal.sync_us"].value*1e3
	const calls = 4
	X, R, C := x.us(), r.us(), c.us()
	hostUS := X - R
	rpcUS := calls * m["rpc.roundtrip_us"].value
	lockUS, walUS := lockNS/1e3, walNS/1e3
	engineUS := max(0, engineGross/1e3-lockUS-walUS)
	coreUS := max(0, C-engineUS-lockUS-walUS)
	sum := hostUS + rpcUS + coreUS + engineUS + lockUS + walUS
	m.set("bench.ledger_coverage_frac", sum/X, x.n)
	return []string{
		fmt.Sprintf("ledger: one link = %.1f us (1 client, %d txns): hostdb %.1f (%s), rpc %.1f (%s), core %.1f (%s), engine %.1f (%s), lock %.1f (%s), wal %.1f (%s); rows sum to %.1f us, coverage %.3f",
			X, x.n, hostUS, pct(hostUS, X), rpcUS, pct(rpcUS, X), coreUS, pct(coreUS, X),
			engineUS, pct(engineUS, X), lockUS, pct(lockUS, X), walUS, pct(walUS, X), sum, sum/X),
		fmt.Sprintf("ledger: onion X %.1f us full hostdb txn, R %.1f us same requests via rpc.Client, C %.1f us straight into Handle; rpc against the live agent R-C = %.1f us vs %d no-op round trips = %.1f us",
			X, R, C, R-C, calls, rpcUS),
		fmt.Sprintf("ledger: per link the DLFM runs %.1f selects, %.1f inserts, %.1f updates, %.1f deletes, %.1f local commits, %.1f lock acquires, %.1f log appends, %.2f log syncs",
			per(e1.Selects-e0.Selects), per(e1.Inserts-e0.Inserts), per(e1.Updates-e0.Updates), per(e1.Deletes-e0.Deletes),
			per(e1.Commits-e0.Commits), per(e1.Lock.Acquisitions-e0.Lock.Acquisitions), per(e1.Log.Appends-e0.Log.Appends), per(syncs1-syncs0)),
	}, nil
}

func pct(part, whole float64) string {
	if whole == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f%%", 100*part/whole)
}
