package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostdb"
)

// TestChaosSmoke is the fault-injection soak in miniature: a short
// two-server run with aggressive kill/drop intervals, then the indoubt
// drain and the cross-system consistency check. It shares the process-wide
// fault registry, so it must not run in parallel with other fault tests.
func TestChaosSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos soak needs wall-clock time")
	}
	fault.Default().Reset()
	t.Cleanup(func() { fault.Default().Reset() })

	st, err := NewStack(StackConfig{
		Servers: []string{"fs1", "fs2"},
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

	res, err := RunChaos(st, ChaosConfig{
		Clients:      8,
		Duration:     1500 * time.Millisecond,
		Seed:         1,
		PreloadRows:  20,
		KillInterval: 300 * time.Millisecond,
		DownTime:     80 * time.Millisecond,
		DropInterval: 150 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("chaos smoke: ops=%d kills=%d dropArms=%d faults=%d resolved=%d giveups=%d",
		res.Workload.Ops, res.Kills, res.DropArms, res.FaultsInjected,
		res.IndoubtsResolved, res.Phase2Giveups)
	if res.Workload.Ops == 0 {
		t.Error("soak performed no operations")
	}
	if res.Kills == 0 {
		t.Error("injector killed no servers; the smoke exercised nothing")
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
