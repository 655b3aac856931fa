package experiments

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostdb"
	"repro/internal/value"
	"repro/internal/workload"
)

// E13: commit protocols under coordinator failure, plus the fast paths.
//
// The blocking window of two-phase commit is the gap between a
// participant's prepare and the coordinator's phase 2: if the coordinator
// dies inside it, the participant holds its locks until the coordinator's
// recovery — nobody else knows the outcome. Paxos Commit (Gray & Lamport)
// closes the window by making the outcome a deterministic function of
// 2F+1 acceptors' state, so any participant can learn it without the
// coordinator.
//
// Part one sweeps protocol x coordinator-fault-rate under the chaos
// workload and counts wedged transactions: prepared DLFM entries still
// unresolved after a self-resolution grace window in which the host never
// runs indoubt resolution. Only a transaction spanning two DLFMs prepares
// (one DLFM commits in one phase), so the workload runs update-heavy over a
// two-member cluster, where an update's old and new file land on different
// members half the time. Classic 2PC wedges (nonzero); Paxos Commit
// participants learn the outcome from the acceptors and release their
// locks (zero). Part two measures the no-fault p99 commit latency of the
// fast paths — single-participant one-phase commit and read-only voting —
// against the full protocols.

// E13Report carries both sweeps.
type E13Report struct {
	Chaos []E13ChaosRow
	Fast  []E13FastRow
}

// E13ChaosRow is one protocol x fault-rate chaos leg.
type E13ChaosRow struct {
	Protocol     string
	FaultRate    float64
	Ops          int64
	Commits      int64
	Crashes      int64         // coordinator-crash fault firings
	IndoubtAtEnd int           // prepared entries the instant the workload stops
	Wedged       int           // still prepared after the grace window, host idle
	SelfResolved int64         // outcomes DLFM learners fetched from the acceptors
	Drained      int           // settled by the host's explicit drain afterwards
	P99          time.Duration // host commit p99 under this fault rate
	Violations   int
}

// E13FastRow is one no-fault fast-path measurement.
type E13FastRow struct {
	Shape     string
	P99       time.Duration
	FastPath  int64 // read-only votes or one-phase commits taken
	TwoPhases int64 // commits that paid the full protocol
}

// RunE13CommitProto runs the chaos sweep, then the fast-path sweep.
func RunE13CommitProto(o Options) (*E13Report, error) {
	seed := o.Seed
	if seed == 0 {
		seed = 1
	}
	legDur := o.SoakDuration / 4
	if legDur < time.Second {
		legDur = time.Second
	}
	rep := &E13Report{}

	twoPCWedged := false
	for _, rate := range []float64{0.05, 0.15} {
		for _, proto := range []string{"2pc", "paxos"} {
			row, err := e13ChaosLeg(proto, rate, seed, legDur, o.clients())
			if err != nil {
				return nil, fmt.Errorf("e13: %s @ %.0f%%: %w", proto, rate*100, err)
			}
			rep.Chaos = append(rep.Chaos, row)
			if row.Violations > 0 {
				return rep, fmt.Errorf("e13: %s @ %.0f%%: %d consistency violations after drain (seed %d replays)",
					proto, rate*100, row.Violations, seed)
			}
			if proto == "paxos" && row.Wedged > 0 {
				return rep, fmt.Errorf("e13: paxos @ %.0f%%: %d transactions stayed wedged — participants failed to learn the outcome from the acceptors",
					rate*100, row.Wedged)
			}
			if proto == "2pc" && row.Wedged > 0 {
				twoPCWedged = true
			}
		}
	}
	if !twoPCWedged {
		return rep, fmt.Errorf("e13: no 2PC leg wedged a transaction; the coordinator-crash fault never bit (seed %d)", seed)
	}

	for _, shape := range []string{"1pc solo", "ro-vote rw+ro", "2pc two writers", "paxos two writers"} {
		row, err := e13FastLeg(shape, o.ops())
		if err != nil {
			return nil, fmt.Errorf("e13: fast path %q: %w", shape, err)
		}
		rep.Fast = append(rep.Fast, row)
	}
	return rep, nil
}

// e13ChaosLeg runs the chaos workload under one protocol with the matching
// coordinator-crash fault armed at rate, measures wedging, then drains and
// checks consistency.
func e13ChaosLeg(proto string, rate float64, seed int64, dur time.Duration, clients int) (E13ChaosRow, error) {
	row := E13ChaosRow{Protocol: proto, FaultRate: rate}
	cfg := workload.StackConfig{
		Servers: []string{"fs1", "fs2"},
		Cluster: true,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
			if proto == "paxos" {
				h.CommitProtocol = "paxos"
			}
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
			// A short learner cadence keeps the grace window honest at
			// benchmark time scales.
			c.LearnInterval = 20 * time.Millisecond
			c.LearnGrace = 100 * time.Millisecond
		},
	}
	if proto == "paxos" {
		cfg.PaxosAcceptors = 3
	}
	st, err := workload.NewStack(cfg)
	if err != nil {
		return row, err
	}
	defer st.Close()

	point := "hostdb.commit.between_phases"
	if proto == "paxos" {
		point = "hostdb.paxos.leader_crash"
	}
	firedBefore := fault.P(point).Fired()
	fault.Default().Arm(point, fault.Action{}, fault.Prob(rate))
	defer fault.Default().Disarm(point)

	// No kills or connection drops: the only chaos is the coordinator
	// crash under test, so every wedged transaction is attributable to it.
	res, err := workload.RunChaos(st, workload.ChaosConfig{
		Clients:      clients,
		Duration:     dur,
		Seed:         seed,
		PreloadRows:  50,
		TablePrefix:  "cp",
		Mix:          workload.Mix{InsertPct: 20, UpdatePct: 70, DeletePct: 5},
		KillInterval: 24 * time.Hour,
		DropInterval: 24 * time.Hour,
		SkipDrain:    true,
	})
	if err != nil {
		return row, err
	}
	fault.Default().Disarm(point)
	row.Ops = res.Workload.Ops
	row.Commits = res.Workload.Commits
	row.Crashes = fault.P(point).Fired() - firedBefore
	row.IndoubtAtEnd = res.LeftoverIndoubts

	// The grace window: the host stays idle — no ResolveIndoubts, no
	// parked-hint retries. Under Paxos the DLFMs' learner daemons consult
	// the acceptors and settle on their own; under 2PC nothing moves.
	deadline := time.Now().Add(3 * time.Second)
	row.Wedged = st.PreparedTxns()
	for row.Wedged > 0 && time.Now().Before(deadline) {
		time.Sleep(50 * time.Millisecond)
		row.Wedged = st.PreparedTxns()
	}
	row.SelfResolved = st.DLFMStats().SelfResolved

	// Now the host drains what the grace window left (everything, under
	// 2PC) and the cross-system invariant must hold either way.
	bo := fault.Backoff{Base: 20 * time.Millisecond, Cap: 250 * time.Millisecond}
	for round := 0; round < 100 && st.PreparedTxns() > 0; round++ {
		n, err := st.Host.ResolveIndoubts()
		if err != nil {
			return row, err
		}
		row.Drained += n
		time.Sleep(bo.Delay(round))
	}
	if left := st.PreparedTxns(); left > 0 {
		return row, fmt.Errorf("%d transactions still prepared after the explicit drain", left)
	}
	vs, err := workload.CheckConsistency(st, "cp_0", "cp_1")
	if err != nil {
		return row, err
	}
	row.Violations = len(vs)
	row.P99 = st.Host.CommitP99()
	return row, nil
}

// e13FastLeg measures commit p99 for one transaction shape with no faults.
func e13FastLeg(shape string, ops int) (E13FastRow, error) {
	row := E13FastRow{Shape: shape}
	servers := []string{"fs1"}
	if strings.Contains(shape, "rw+ro") || strings.Contains(shape, "two writers") {
		servers = []string{"fs1", "fs2"}
	}
	cfg := workload.StackConfig{
		Servers: servers,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 10 * time.Second
			if strings.HasPrefix(shape, "paxos") {
				h.CommitProtocol = "paxos"
			}
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 10 * time.Second
		},
	}
	if strings.HasPrefix(shape, "paxos") {
		cfg.PaxosAcceptors = 3
	}
	st, err := workload.NewStack(cfg)
	if err != nil {
		return row, err
	}
	defer st.Close()

	twoWriters := strings.Contains(shape, "two writers")
	ddl := "CREATE TABLE e13 (id BIGINT, c1 VARCHAR"
	cols := []hostdb.DatalinkCol{{Name: "c1"}}
	if twoWriters {
		ddl += ", c2 VARCHAR"
		cols = append(cols, hostdb.DatalinkCol{Name: "c2"})
	}
	ddl += ")"
	if err := st.Host.CreateTable(ddl, cols...); err != nil {
		return row, err
	}
	for t := 0; t < ops; t++ {
		if err := st.FS["fs1"].Create(fmt.Sprintf("/e13/f%d", t), "app", []byte("x")); err != nil {
			return row, err
		}
		if twoWriters {
			if err := st.FS["fs2"].Create(fmt.Sprintf("/e13/g%d", t), "app", []byte("x")); err != nil {
				return row, err
			}
		}
	}

	s := st.Host.Session()
	defer s.Close()
	for t := 0; t < ops; t++ {
		var execErr error
		if twoWriters {
			_, execErr = s.Exec(`INSERT INTO e13 (id, c1, c2) VALUES (?, ?, ?)`,
				value.Int(int64(t)),
				value.Str(hostdb.URL("fs1", fmt.Sprintf("/e13/f%d", t))),
				value.Str(hostdb.URL("fs2", fmt.Sprintf("/e13/g%d", t))))
		} else {
			_, execErr = s.Exec(`INSERT INTO e13 (id, c1) VALUES (?, ?)`,
				value.Int(int64(t)), value.Str(hostdb.URL("fs1", fmt.Sprintf("/e13/f%d", t))))
		}
		if execErr != nil {
			return row, execErr
		}
		if strings.Contains(shape, "rw+ro") {
			// The second DLFM joins the transaction without writing: the
			// shape every SELECT-touching-two-systems commit has. Its
			// read-only vote costs one prepare and no phase 2.
			if err := s.Enlist("fs2"); err != nil {
				return row, err
			}
		}
		if err := s.Commit(); err != nil {
			return row, err
		}
	}
	row.P99 = st.Host.CommitP99()
	snap := st.Host.Stats()
	switch {
	case strings.HasPrefix(shape, "ro-vote"):
		row.FastPath = snap.ReadOnlyVotes
	case strings.HasPrefix(shape, "1pc"):
		row.FastPath = snap.OnePhaseCommits
	case strings.HasPrefix(shape, "paxos"):
		row.FastPath = snap.PaxosCommits
	}
	row.TwoPhases = snap.Commits - row.FastPath
	return row, nil
}

// String renders both sweeps.
func (r *E13Report) String() string {
	var b strings.Builder
	b.WriteString("E13 — commit protocol under coordinator crashes (wedged = prepared after grace, host idle)\n")
	ct := &table{header: []string{"protocol", "crash rate", "ops", "commits", "crashes", "indoubt@end", "wedged", "self-resolved", "drained", "p99", "violations"}}
	for _, row := range r.Chaos {
		ct.add(row.Protocol, fmt.Sprintf("%.0f%%", row.FaultRate*100),
			fmtI(row.Ops), fmtI(row.Commits), fmtI(row.Crashes),
			fmtI(int64(row.IndoubtAtEnd)), fmtI(int64(row.Wedged)),
			fmtI(row.SelfResolved), fmtI(int64(row.Drained)),
			row.P99.Round(time.Microsecond).String(), fmtI(int64(row.Violations)))
	}
	b.WriteString(ct.String())
	b.WriteString("\nE13 — fast-path commit latency, no faults\n")
	ft := &table{header: []string{"shape", "p99", "fast-path commits", "full-protocol commits"}}
	for _, row := range r.Fast {
		ft.add(row.Shape, row.P99.Round(time.Microsecond).String(), fmtI(row.FastPath), fmtI(row.TwoPhases))
	}
	b.WriteString(ft.String())
	return b.String()
}
