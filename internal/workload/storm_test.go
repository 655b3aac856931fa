package workload

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/hostdb"
)

// A small open-loop storm against a clustered stack: every arrival is
// accounted for (committed, shed, or rolled back), the consistency invariant
// holds afterwards, and the latency percentiles are populated.
func TestStormAccountsForEverySession(t *testing.T) {
	st, err := NewStack(StackConfig{
		Servers: []string{"fs1", "fs2"},
		Cluster: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, err := RunChaos(st, ChaosConfig{Config: Config{
		Rate: 4000, Sessions: 400, Clients: 8, Seed: 11, PreloadRows: 20, Table: "storm",
	}})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Workload
	t.Logf("storm: %s", w)
	if w.Ops != 400 {
		t.Errorf("arrivals = %d, want 400", w.Ops)
	}
	if got := w.Commits + w.Shed + w.Rollback; got != w.Ops {
		t.Errorf("commits+shed+rollbacks = %d, want %d (every session accounted)", got, w.Ops)
	}
	if w.Commits == 0 {
		t.Error("no commits")
	}
	if w.LatencyP99 == 0 {
		t.Error("latency percentiles empty")
	}
	if w.LatencyP99 > 2*time.Second {
		t.Errorf("p99 %v blew a 2s SLO on an unloaded stack", w.LatencyP99)
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// With admission armed and the engine lock list squeezed, an over-saturated
// storm sheds rather than queueing without bound — and what it does admit
// still satisfies the consistency invariant.
func TestStormShedsUnderPressure(t *testing.T) {
	st, err := NewStack(StackConfig{
		Servers: []string{"fs1"},
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockListSize = 48
			h.DB.EscalationThreshold = 0
			h.AdmissionLockFrac = 0.4
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	res, err := RunChaos(st, ChaosConfig{Config: Config{
		Rate:     20000, // far past what one member absorbs politely
		Sessions: 600, Clients: 16, Seed: 13, PreloadRows: 20, Table: "storm",
		Mix: Mix{InsertPct: 70, UpdatePct: 20, DeletePct: 5},
	}})
	if err != nil {
		t.Fatal(err)
	}
	w := res.Workload
	t.Logf("storm under pressure: %s", w)
	if got := w.Commits + w.Shed + w.Rollback; got != w.Ops {
		t.Errorf("commits+shed+rollbacks = %d, want %d", got, w.Ops)
	}
	if w.Shed == 0 {
		t.Error("admission never shed despite a squeezed lock list at 20x load")
	}
	if w.Commits == 0 {
		t.Error("shedding starved every session; admitted work should still commit")
	}
	for _, v := range res.Violations {
		t.Errorf("invariant violation: %s", v)
	}
}

// The Poisson generator is deterministic per seed and its mean inter-arrival
// time tracks 1/rate.
func TestExpDurMeanTracksRate(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	const rate = 1000.0
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		d := expDur(rng, rate)
		if d < 0 {
			t.Fatalf("negative inter-arrival %v", d)
		}
		sum += d
	}
	mean := sum / n
	want := time.Duration(float64(time.Second) / rate)
	if mean < want/2 || mean > want*2 {
		t.Errorf("mean inter-arrival %v, want within 2x of %v", mean, want)
	}
}
