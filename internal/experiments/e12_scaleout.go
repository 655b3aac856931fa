package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/hostdb"
	"repro/internal/workload"
)

// e12FsyncDelay models the commit-path fsync of one DLFM's log device. The
// in-process WAL syncs in microseconds (tmpfs), which hides the resource
// the experiment divides: the paper's DLFMs are separate machines, each
// with its own log disk, and link throughput is bounded by how fast the
// owning member can harden its commit records. The delay runs inside the
// log mutex, so commits on one member serialize behind it — exactly the
// per-device bottleneck scale-out is supposed to divide. It is sized like
// a real disk fsync (a few ms) rather than symbolically: the whole
// deployment shares one machine's CPU, so the divisible (sleeping)
// fraction must dominate the CPU fraction for the scaling shape to show.
// Only the members' logs get it: the host hardens its branch before each
// one-phase commit, and its log is not the resource under test.
const e12FsyncDelay = 6 * time.Millisecond

// e12Mix is insert-only: the measured rate is the paper's headline
// links/min. Every transaction links one fresh file on the path's owning
// member, so the load divides cleanly across the cluster. Updates would
// blur the division — an update unlinks one path and links another, and at
// two or more members those usually live on different owners, coupling two
// device queues into every transaction (E2 covers the mixed-rate axis).
func e12Mix() workload.Mix { return workload.Mix{InsertPct: 100} }

// E12Report measures aggregate link throughput as one fixed client load is
// spread over a growing DLFM cluster behind a single logical namespace.
// Each member carries its own file-backed WAL; the placement map routes
// every path to its owning member, so the per-member log device divides
// with the member count. The shape to check: throughput grows close to
// linearly while the log device is the bottleneck — the acceptance bar is
// >= 3x aggregate link throughput at 8 members vs 1.
//
// The report closes with one online drain: a member leaves a clustered
// stack mid-chaos (kills + connection drops) and the cross-system
// consistency check must hold afterwards — scale-in is only real if it
// works under fire.
type E12Report struct {
	Clients  int
	Duration time.Duration
	Rows     []E12Row
	Drain    E12Drain
}

// E12Row is one cluster-size measurement.
type E12Row struct {
	Members     int
	Ops         int64
	Commits     int64
	LinksPerMin float64 // inserts/min + updates/min: both link a file
	OpsPerSec   float64
	LatencyP50  time.Duration
	Speedup     float64 // LinksPerMin vs the smallest cluster measured
}

// E12Drain is the online scale-in result.
type E12Drain struct {
	Members      int
	DrainMember  string
	DrainedFiles int
	Rounds       int
	Ops          int64
	Kills        int64
	Violations   int
}

// RunE12Scaleout sweeps cluster size under a fixed load (default 1, 2, 4,
// 8 members; Options.Members overrides, e.g. to reach 16), then drains one
// member out of a 4-member cluster while the chaos soak runs.
func RunE12Scaleout(opt Options) (*E12Report, error) {
	members := opt.Members
	if len(members) == 0 {
		members = []int{1, 2, 4, 8}
	}
	dur := opt.SoakDuration
	if dur <= 0 {
		dur = 5 * time.Second
	}
	rep := &E12Report{Clients: opt.clients(), Duration: dur}
	for _, n := range members {
		if opt.Verbose {
			fmt.Printf("e12: measuring %d member(s)\n", n)
		}
		res, err := e12Measure(n, opt.clients(), dur, opt.Seed)
		if err != nil {
			return nil, fmt.Errorf("e12: %d members: %w", n, err)
		}
		row := E12Row{
			Members:     n,
			Ops:         res.Ops,
			Commits:     res.Commits,
			LinksPerMin: res.InsertsPerMin + res.UpdatesPerMin,
			OpsPerSec:   res.OpsPerSec,
			LatencyP50:  res.LatencyP50,
		}
		if base := rep.Rows; len(base) > 0 && base[0].LinksPerMin > 0 {
			row.Speedup = row.LinksPerMin / base[0].LinksPerMin
		} else if len(base) == 0 {
			row.Speedup = 1
		}
		rep.Rows = append(rep.Rows, row)
	}

	drain, err := e12Drain(opt, dur)
	if err != nil {
		return nil, err
	}
	rep.Drain = drain
	return rep, nil
}

// e12Measure runs the fixed workload against an n-member cluster and
// returns the aggregate result.
func e12Measure(n, clients int, dur time.Duration, seed int64) (workload.Result, error) {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("fs%d", i+1)
	}
	walDir, err := os.MkdirTemp("", "e12wal")
	if err != nil {
		return workload.Result{}, err
	}
	defer os.RemoveAll(walDir)

	st, err := workload.NewStack(workload.StackConfig{
		Servers: names,
		Cluster: true,
		// The default 32-slot ring is coarse at 8+ members: rendezvous
		// shares spread ±50%, and the hottest member's log device caps the
		// aggregate. A finer ring smooths shares to a few percent — size
		// the ring for the largest cluster you plan to sweep.
		ClusterSlots: 256,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 10 * time.Second
			// The host database is not the resource under test: the paper's
			// host is a mature DBMS whose group commit amortizes its log
			// force (E6/E8 cover that axis). Turning its per-commit fsync
			// off keeps the DLFM log devices as the divided bottleneck.
			h.DB.SyncCommit = false
		},
		MutateDLFM: func(name string, c *core.Config) {
			c.DB.LockTimeout = 10 * time.Second
			// One file-backed WAL per member: the log device whose fsync
			// bandwidth the cluster divides.
			c.DB.LogPath = filepath.Join(walDir, name+".wal")
		},
	})
	if err != nil {
		return workload.Result{}, err
	}
	defer st.Close()

	r, err := workload.NewRunner(st, workload.Config{
		Clients:     clients,
		Duration:    dur,
		Mix:         e12Mix(),
		Table:       "e12",
		PreloadRows: 100,
		Seed:        seed,
	})
	if err != nil {
		return workload.Result{}, err
	}
	if err := r.Prepare(); err != nil {
		return workload.Result{}, err
	}
	// The slow log device applies to the measured run only — preload and
	// the join-time slot migrations above run at full speed.
	for _, d := range st.DLFMs {
		d.DB().WAL().SetSyncDelay(e12FsyncDelay)
	}
	return r.Run()
}

// e12Drain drains one member out of a 4-member cluster while the seeded
// chaos soak kills servers and severs connections. Violations are harness
// failures: scale-in that corrupts the namespace is not scale-in.
func e12Drain(opt Options, dur time.Duration) (E12Drain, error) {
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	st, err := workload.NewStack(workload.StackConfig{
		Servers: []string{"fs1", "fs2", "fs3", "fs4"},
		Cluster: true,
		MutateHost: func(h *hostdb.Config) {
			h.DB.LockTimeout = 2 * time.Second
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = 2 * time.Second
		},
	})
	if err != nil {
		return E12Drain{}, err
	}
	defer st.Close()

	res, err := workload.RunClusterSoak(st, workload.ClusterSoakConfig{
		Chaos: workload.ChaosConfig{
			Clients:      opt.clients(),
			Duration:     dur,
			Seed:         seed,
			PreloadRows:  50,
			KillInterval: 500 * time.Millisecond,
			DownTime:     100 * time.Millisecond,
			DropInterval: 250 * time.Millisecond,
		},
	})
	if err != nil {
		return E12Drain{}, fmt.Errorf("e12: drain soak: %w", err)
	}
	d := E12Drain{
		Members:      4,
		DrainMember:  res.DrainMember,
		DrainedFiles: res.DrainedFiles,
		Rounds:       res.DrainRounds,
		Ops:          res.Chaos.Workload.Ops,
		Kills:        res.Chaos.Kills,
		Violations:   len(res.Chaos.Violations),
	}
	if d.Violations > 0 {
		return d, fmt.Errorf("e12: drain soak: %d invariant violations (seed %d replays the run): %s",
			d.Violations, seed, res.Chaos.Violations[0])
	}
	return d, nil
}

// String renders the report.
func (r *E12Report) String() string {
	t := &table{header: []string{"members", "ops", "commits", "links/min", "ops/s", "p50", "speedup", "shape check"}}
	var base, at8 float64
	for i, row := range r.Rows {
		check := "baseline"
		if i == 0 {
			base = row.LinksPerMin
		}
		if row.Members > 1 {
			check = "near-linear gain expected"
		}
		if row.Members == 8 && base > 0 {
			at8 = row.LinksPerMin / base
			verdict := "FAIL"
			if at8 >= 3 {
				verdict = "PASS"
			}
			check = fmt.Sprintf(">=3x vs 1 member required: %s", verdict)
		}
		t.add(fmtI(int64(row.Members)), fmtI(row.Ops), fmtI(row.Commits),
			fmtF(row.LinksPerMin), fmtF(row.OpsPerSec),
			row.LatencyP50.Round(time.Microsecond).String(),
			fmtF(row.Speedup), check)
	}
	d := r.Drain
	return fmt.Sprintf("E12 — aggregate link throughput vs cluster size (%d clients fixed, %s per size, slow log device per member)\n",
		r.Clients, r.Duration) +
		t.String() +
		fmt.Sprintf("online drain: %s left a %d-member cluster under chaos in %d round(s); %d files migrated, ops=%d kills=%d violations=%d\n",
			d.DrainMember, d.Members, d.Rounds, d.DrainedFiles, d.Ops, d.Kills, d.Violations)
}
