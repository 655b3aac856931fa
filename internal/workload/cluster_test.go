package workload

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostdb"
)

// TestClusterWorkloadSpreads drives the standard runner against a clustered
// stack's logical namespace and checks the placement map actually spread
// the links over the members, with the cross-system invariant holding.
func TestClusterWorkloadSpreads(t *testing.T) {
	st, err := NewStack(StackConfig{
		Servers: []string{"fs1", "fs2", "fs3"},
		Cluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.ClusterName != "dlfs" {
		t.Fatalf("ClusterName = %q", st.ClusterName)
	}

	r, err := NewRunner(st, Config{
		Clients:      6,
		OpsPerClient: 25,
		Mix:          DefaultMix(),
		Table:        "clw",
		PreloadRows:  30,
		Seed:         42,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.cfg.Server != "dlfs" {
		t.Fatalf("runner defaulted to %q, want the cluster", r.cfg.Server)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("no commits")
	}

	spread := 0
	for name := range st.DLFMs {
		linked, err := countLinked(st, name)
		if err != nil {
			t.Fatal(err)
		}
		t.Logf("%s: %d linked entries", name, linked)
		if linked > 0 {
			spread++
		}
	}
	if spread < 2 {
		t.Errorf("links landed on %d members; placement did not spread", spread)
	}

	vs, err := CheckConsistency(st, "clw")
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range vs {
		t.Errorf("invariant violation: %s", v)
	}
}

// TestClusterSoakDrain is the migration-under-fire smoke: chaos kills and
// connection drops on a clustered stack while one member drains out online.
// Shares the process-wide fault registry — not parallel with fault tests.
//
// Un-quarantined: the flake it used to exhibit under package-level -race
// load ("orphan linked entry ... (no host row)") was a mover bug, not a
// timing artifact. A chaos kill could lose the CommitReq of a migration
// transaction after a successful prepare, leaving it prepared at the move
// target; the next round's delta pass read that transaction's uncommitted
// writes through the DumpTable manifest, converged on the dirty state, and
// cut over — after which presumed abort mutated the slot (resurrecting
// delta-deleted entries or dropping bulk-copied links). The mover now
// drains the target's undecided slot transactions before taking the delta
// manifests (internal/cluster/migrate.go), and the ramp-up wait before the
// drain is event-driven instead of a fixed sleep.
func TestClusterSoakDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("cluster soak needs wall-clock time")
	}
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })

	st, err := NewStack(StackConfig{
		Servers: []string{"fs1", "fs2", "fs3"},
		Cluster: true,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// The last member drains out online. Kills spare it: its slots cannot
	// move off a dead source.
	const member = "fs3"
	const duration = 2 * time.Second
	var drained, rounds int
	res, err := RunChaos(st, ChaosConfig{
		Config:       Config{Clients: 9, Duration: duration, Seed: 7, PreloadRows: 25},
		KillInterval: 400 * time.Millisecond,
		DownTime:     80 * time.Millisecond,
		DropInterval: 200 * time.Millisecond,
		KillExclude:  []string{member},
		During: func(st *Stack, _ <-chan struct{}) error {
			// Start draining once the member holds a linked entry, so the
			// move exercises real data, but wait no longer than a quarter
			// of the run.
			for deadline := time.Now().Add(duration / 4); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
				if n, err := countLinked(st, member); err == nil && n > 0 {
					break
				}
			}
			var lastErr error
			bo := fault.Backoff{Base: 50 * time.Millisecond, Cap: 500 * time.Millisecond}
			for rounds = 1; rounds <= 50; rounds++ {
				n, err := st.Host.DrainDLFM(st.ClusterName, member)
				drained += n
				if err == nil {
					return nil
				}
				lastErr = err
				// A kill mid-move can leave the migration transaction
				// prepared on one side; settle it (presumed abort), then
				// retry the member's remaining slots, backing off so a
				// killed member has time to come back.
				st.Host.ResolveIndoubts() //nolint:errcheck
				time.Sleep(bo.Delay(rounds - 1))
			}
			return fmt.Errorf("drain of %s incomplete after 50 rounds: %w", member, lastErr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("cluster soak: ops=%d kills=%d drained=%d files in %d rounds, giveups=%d",
		res.Workload.Ops, res.Kills, drained, rounds, res.Phase2Giveups)
	if res.Workload.Ops == 0 {
		t.Error("soak performed no operations")
	}
	if rounds == 0 {
		t.Error("drain never ran")
	}
	if m := st.Host.Cluster(st.ClusterName); m.HasMember(member) {
		t.Errorf("member %s still in the cluster", member)
	}
	if left, err := countLinked(st, member); err != nil || left > 0 {
		t.Errorf("drained member %s still holds %d linked entries (%v)", member, left, err)
	}
	if res.Phase2Giveups != 0 {
		t.Errorf("Phase2Giveups = %d, want 0", res.Phase2Giveups)
	}
	if res.LeftoverIndoubts != 0 {
		t.Errorf("LeftoverIndoubts = %d, want 0 after drain", res.LeftoverIndoubts)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// countLinked counts the member's live linked entries (dlfm_file rows in
// state L with a zero transaction mark).
func countLinked(st *Stack, member string) (int, error) {
	rows, err := st.DLFMs[member].DB().DumpTable("dlfm_file")
	if err != nil {
		return 0, err
	}
	n := 0
	for _, r := range rows {
		if r[6].Text() == "L" && r[7].Int64() == 0 {
			n++
		}
	}
	return n, nil
}
