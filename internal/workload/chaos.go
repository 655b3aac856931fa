package workload

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/fault"
	"repro/internal/hostdb"
	"repro/internal/obs"
)

// The soak: the E1 multi-client workload runs split over the stack's DLFMs
// while an optional seeded injector kills and restarts DLFMs and drops live
// connections, and an optional During hook runs a scenario of its own (a
// failover, an online drain). Afterwards the harness drains every indoubt
// transaction and asserts the cross-system invariant the paper's recovery
// design guarantees (Section 3.3): each linked DATALINK value has exactly
// one linked DLFM entry and a real file, and no DLFM entry or prepared
// transaction is left orphaned.

// ChaosConfig controls one soak run. Config's Clients (default 100) and
// open-loop Rate and Sessions are split over the targets: one runner per
// DLFM, each on its own table named Table_i (default "chaos_i"), or, on a
// clustered stack, as many runners addressing the logical namespace.
// Duration defaults to 5s; Server and PathPrefix are set per runner.
type ChaosConfig struct {
	Config

	// KillInterval is the mean time between DLFM kills (zero: none); a
	// killed server stays down for DownTime before restarting.
	// DropInterval is the mean time between armings of the rpc.recv.before
	// drop fault (zero: none); each arming severs the next two answered
	// calls somewhere in the stack.
	KillInterval time.Duration
	DownTime     time.Duration
	DropInterval time.Duration
	// KillExclude names members the injector must not kill — the source of
	// an online drain has to stay reachable for its slots to move off it.
	KillExclude []string

	// During, when set, runs in its own goroutine alongside the workload;
	// done closes once the workload has finished and the injector has
	// stopped. RunChaos waits for During to return before draining indoubts
	// and checking consistency, and reports its error as a harness failure.
	During func(st *Stack, done <-chan struct{}) error

	// SkipDrain leaves prepared transactions exactly as the workload left
	// them: no ResolveIndoubts rounds, no leftover-indoubt violation, and
	// no consistency check (meaningless mid-resolution). LeftoverIndoubts
	// still reports the count.
	SkipDrain bool
}

// ChaosResult reports what the soak did and what the invariant check found.
type ChaosResult struct {
	Workload Result

	Kills          int64
	DropArms       int64
	FaultsInjected int64

	IndoubtsResolved int
	LeftoverIndoubts int
	Phase2Giveups    int64
	Violations       []string
}

// RunChaos executes the soak against st. The returned error covers harness
// failures (a client died on a non-retryable error, During or the drain
// failed); invariant violations are reported in the result, not as an
// error.
func RunChaos(st *Stack, cfg ChaosConfig) (ChaosResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 100
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 5 * time.Second
	}
	if cfg.Table == "" {
		cfg.Table = "chaos"
	}
	if cfg.Mix == (Mix{}) {
		cfg.Mix = DefaultMix()
	}
	if cfg.DownTime <= 0 {
		cfg.DownTime = max(cfg.KillInterval/3, 50*time.Millisecond)
	}
	if cfg.Rate > 0 && cfg.Sessions <= 0 {
		cfg.Sessions = max(int(cfg.Rate*cfg.Duration.Seconds()), 1)
	}

	fault.Default().Seed(cfg.Seed)
	firedBefore := fault.Default().Injected()

	names := sortedNames(st.DLFMs)
	// In a clustered stack every runner addresses the logical namespace and
	// the placement map spreads the load; otherwise one runner per server.
	targets := names
	if st.ClusterName != "" {
		targets = make([]string, len(names))
		for i := range targets {
			targets[i] = st.ClusterName
		}
	}
	// Every runner gets at least one client (and one arrival).
	n := min(len(targets), cfg.Clients)
	if cfg.Rate > 0 {
		n = min(n, cfg.Sessions)
	}
	shares := splitClients(cfg.Clients, n)
	sessions := splitClients(cfg.Sessions, n)
	lat := obs.NewHistogram()
	runners := make([]*Runner, n)
	tables := make([]string, n)
	for i := range runners {
		rc := cfg.Config
		rc.Clients = shares[i]
		rc.Server = targets[i]
		rc.Table = fmt.Sprintf("%s_%d", cfg.Table, i)
		rc.PathPrefix = "/" + rc.Table
		rc.Seed = cfg.Seed + int64(i)*1001
		rc.Sessions = sessions[i]
		if cfg.Rate > 0 {
			rc.Rate = cfg.Rate * float64(sessions[i]) / float64(cfg.Sessions)
		}
		r, err := NewRunner(st, rc)
		if err != nil {
			return ChaosResult{}, err
		}
		if err := r.Prepare(); err != nil {
			return ChaosResult{}, err
		}
		r.lat = lat
		runners[i], tables[i] = r, rc.Table
	}

	stopInjector := startInjector(st, cfg)
	done := make(chan struct{})
	duringErr := make(chan error, 1)
	if cfg.During != nil {
		go func() { duringErr <- cfg.During(st, done) }()
	} else {
		duringErr <- nil
	}

	results := make([]Result, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for i, r := range runners {
		wg.Add(1)
		go func(i int, r *Runner) {
			defer wg.Done()
			results[i], errs[i] = r.Run()
		}(i, r)
	}
	wg.Wait()
	var res ChaosResult
	res.Kills, res.DropArms = stopInjector()
	close(done)
	// The scenario may outlast the workload; the consistency check below
	// needs a quiesced stack, so wait it out first.
	scenarioErr := <-duringErr

	for _, r := range results {
		addFields(reflect.ValueOf(&res.Workload).Elem(), reflect.ValueOf(r))
	}
	res.Workload.summarize(lat)
	res.FaultsInjected = fault.Default().Injected() - firedBefore
	if err := errors.Join(errs...); err != nil {
		return res, fmt.Errorf("workload: soak: %w", err)
	}
	if scenarioErr != nil {
		return res, fmt.Errorf("workload: soak scenario: %w", scenarioErr)
	}

	if cfg.SkipDrain {
		res.LeftoverIndoubts = st.PreparedTxns()
		res.Phase2Giveups = st.DLFMStats().Phase2Giveups
		return res, nil
	}
	var err error
	res.IndoubtsResolved, res.LeftoverIndoubts, err = st.DrainIndoubts()
	if err != nil {
		return res, fmt.Errorf("workload: soak drain: %w", err)
	}
	res.Phase2Giveups = st.DLFMStats().Phase2Giveups
	if res.LeftoverIndoubts > 0 {
		res.Violations = append(res.Violations,
			fmt.Sprintf("%d prepared transactions remain after drain", res.LeftoverIndoubts))
	}
	vs, err := CheckConsistency(st, tables...)
	if err != nil {
		return res, fmt.Errorf("workload: soak consistency check: %w", err)
	}
	res.Violations = append(res.Violations, vs...)
	return res, nil
}

// PreparedTxns totals prepared ('P') transaction entries across all DLFMs —
// the wedged-transaction gauge the commit-protocol experiment polls while
// deciding whether participants can settle without the coordinator.
func (st *Stack) PreparedTxns() int {
	n := 0
	for _, d := range st.DLFMs {
		rows, err := d.DB().DumpTable("dlfm_txn")
		if err != nil {
			continue
		}
		for _, r := range rows {
			if r[1].Text() == "P" {
				n++
			}
		}
	}
	return n
}

// DrainIndoubts re-drives indoubt resolution until no DLFM holds a prepared
// transaction (presumed abort settles the ones with no recorded outcome;
// recorded commits are re-driven to completion). Later rounds back off with
// jitter — a just-restarted DLFM needs recovery time, and hammering it every
// 20ms only serializes behind its log replay.
func (st *Stack) DrainIndoubts() (resolved, leftover int, err error) {
	bo := fault.Backoff{Base: 20 * time.Millisecond, Cap: 250 * time.Millisecond}
	for round := 0; round < 100; round++ {
		n, err := st.Host.ResolveIndoubts()
		if err != nil {
			return resolved, leftover, err
		}
		resolved += n
		if leftover = st.PreparedTxns(); leftover == 0 {
			break
		}
		time.Sleep(bo.Delay(round))
	}
	return resolved, leftover, nil
}

// CheckConsistency asserts the cross-system invariant over the given host
// tables, the DLFM metadata, and the file servers: every linked DATALINK
// value has exactly one linked dlfm_file entry — on the member its URL
// names, or, for a clustered URL, on exactly one member its placement
// resolves to — plus an existing file, and every linked dlfm_file entry on
// any member is referenced by some host row (a drained member must be
// empty). Call it only on a quiesced stack (after drain); DumpTable
// bypasses locking.
func CheckConsistency(st *Stack, tables ...string) ([]string, error) {
	var violations []string
	type ref struct{ server, path string } // server as spelled in the URL
	var refs []ref
	seen := make(map[ref]bool)
	// The DATALINK column registry names every linked column per table (a
	// fan-out table has one per DLFM).
	reg, err := st.Host.Engine().DumpTable("dl_cols")
	if err != nil {
		return nil, err
	}
	for _, table := range tables {
		meta, err := st.Host.Engine().Catalog().Table(table)
		if err != nil {
			return nil, err
		}
		dlNames := make(map[string]bool)
		for _, r := range reg {
			if r[0].Text() == table {
				dlNames[r[1].Text()] = true
			}
		}
		var dlIdxs []int
		for i, c := range meta.Schema.Cols {
			if dlNames[c.Name] {
				dlIdxs = append(dlIdxs, i)
			}
		}
		if len(dlIdxs) == 0 {
			return nil, fmt.Errorf("workload: table %s has no DATALINK columns", table)
		}
		rows, err := st.Host.Engine().DumpTable(table)
		if err != nil {
			return nil, err
		}
		for _, row := range rows {
			for _, dlIdx := range dlIdxs {
				v := row[dlIdx]
				if v.IsNull() || v.Text() == "" {
					continue
				}
				server, path, err := hostdb.ParseURL(v.Text())
				if err != nil {
					violations = append(violations, fmt.Sprintf("host row has malformed DATALINK %q", v.Text()))
					continue
				}
				rf := ref{server, path}
				if seen[rf] {
					violations = append(violations, fmt.Sprintf("path %s on %s linked by more than one host row", path, server))
					continue
				}
				seen[rf] = true
				refs = append(refs, rf)
			}
		}
	}

	// Every member's linked entries, plus local per-member invariants
	// (unique entry per path, file bytes present).
	linked := make(map[string]map[string]int, len(st.DLFMs))
	for _, server := range sortedNames(st.DLFMs) {
		dlfmRows, err := st.DLFMs[server].DB().DumpTable("dlfm_file")
		if err != nil {
			return nil, err
		}
		linked[server] = make(map[string]int)
		for _, r := range dlfmRows {
			// dlfm_file: name, grpid, recid, lnk_txn, unlnk_txn, unlnk_time,
			// state, chkflag, del_txn, owner
			if r[6].Text() == "L" && r[7].Int64() == 0 {
				linked[server][r[0].Text()]++
			}
		}
		for path, n := range linked[server] {
			if n > 1 {
				violations = append(violations, fmt.Sprintf("%s: %d linked entries for %s", server, n, path))
			}
			if _, err := st.FS[server].Stat(path); err != nil {
				violations = append(violations, fmt.Sprintf("%s: linked file %s missing from file server", server, path))
			}
		}
	}

	// Resolve each host reference through placement: a physical URL names
	// its member directly; a clustered URL may legitimately live on any
	// member the map currently reads from (one, in a quiesced stack).
	referenced := make(map[string]map[string]bool, len(st.DLFMs))
	for _, rf := range refs {
		owners := st.Host.ReadOwners(rf.server, rf.path)
		var holders []string
		for _, o := range owners {
			if _, exists := st.DLFMs[o]; !exists {
				violations = append(violations, fmt.Sprintf("host links %s on unknown server %s", rf.path, o))
				continue
			}
			if linked[o][rf.path] > 0 {
				holders = append(holders, o)
			}
		}
		switch {
		case len(holders) == 0:
			violations = append(violations, fmt.Sprintf(
				"host links %s on %s but no owner %v has a linked entry", rf.path, rf.server, owners))
		case len(holders) > 1:
			violations = append(violations, fmt.Sprintf(
				"path %s on %s linked on multiple members %v", rf.path, rf.server, holders))
		default:
			if referenced[holders[0]] == nil {
				referenced[holders[0]] = make(map[string]bool)
			}
			referenced[holders[0]][rf.path] = true
		}
	}
	for _, server := range sortedNames(st.DLFMs) {
		for path := range linked[server] {
			if !referenced[server][path] {
				violations = append(violations, fmt.Sprintf("%s: orphan linked entry %s (no host row)", server, path))
			}
		}
	}
	sort.Strings(violations)
	return violations, nil
}

// startInjector launches the kill/drop injector: one goroutine, all
// decisions from one seeded PRNG, so a given seed replays the same
// schedule. The returned stop function halts it, waits for it to exit
// (restarting a member it left down), disarms any leftover drop fault, and
// reports how many kills and drop armings it made.
func startInjector(st *Stack, cfg ChaosConfig) (stop func() (kills, drops int64)) {
	excluded := make(map[string]bool, len(cfg.KillExclude))
	for _, n := range cfg.KillExclude {
		excluded[n] = true
	}
	var killable []string
	for _, n := range sortedNames(st.DLFMs) {
		if !excluded[n] {
			killable = append(killable, n)
		}
	}
	var kills, drops int64
	quit := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(cfg.Seed*7919 + 1))
		var killC, dropC <-chan time.Time
		var nextKill, nextDrop *time.Timer
		if cfg.KillInterval > 0 && len(killable) > 0 {
			nextKill = time.NewTimer(jitterDur(rng, cfg.KillInterval))
			defer nextKill.Stop()
			killC = nextKill.C
		}
		if cfg.DropInterval > 0 {
			nextDrop = time.NewTimer(jitterDur(rng, cfg.DropInterval))
			defer nextDrop.Stop()
			dropC = nextDrop.C
		}
		for {
			select {
			case <-quit:
				return
			case <-killC:
				name := killable[rng.Intn(len(killable))]
				st.Kill(name)
				kills++
				select {
				case <-time.After(jitterDur(rng, cfg.DownTime)):
				case <-quit:
					st.Restart(name)
					return
				}
				st.Restart(name)
				nextKill.Reset(jitterDur(rng, cfg.KillInterval))
			case <-dropC:
				fault.Default().Arm("rpc.recv.before", fault.Action{Drop: true}, fault.Times(2))
				drops++
				nextDrop.Reset(jitterDur(rng, cfg.DropInterval))
			}
		}
	}()
	return func() (int64, int64) {
		close(quit)
		<-done
		fault.Default().Disarm("rpc.recv.before")
		return kills, drops
	}
}

// jitterDur spreads d over [d/2, 3d/2) so injector events do not beat in
// lockstep with workload periodicity.
func jitterDur(rng *rand.Rand, d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	return d/2 + time.Duration(rng.Int63n(int64(d)))
}
