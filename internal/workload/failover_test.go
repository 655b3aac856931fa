package workload

import (
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/hostdb"
	"repro/internal/rpc"
	"repro/internal/value"
)

func newStandbyStack(t *testing.T, servers ...string) *Stack {
	t.Helper()
	if len(servers) == 0 {
		servers = []string{"fs1"}
	}
	st, err := NewStack(StackConfig{
		Servers:  servers,
		Standbys: true,
		MutateDLFM: func(name string, cfg *core.Config) {
			cfg.DB.LockTimeout = 2 * time.Second
			cfg.GCInterval = time.Hour
			cfg.CopyInterval = time.Hour
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Close)
	return st
}

// TestFailoverSoak kills a primary for good mid-run, fails over to its
// standby once the workload stops, drains, and holds the consistency
// invariant with zero lost committed links.
func TestFailoverSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("failover soak in -short mode")
	}
	st := newStandbyStack(t, "fs1", "fs2")
	const victim = "fs1"
	sb := st.Standbys[victim]
	var failedOver bool
	res, err := RunChaos(st, ChaosConfig{
		Config: Config{Clients: 16, Duration: 2 * time.Second, Seed: 1, PreloadRows: 20, Table: "fo"},
		During: func(st *Stack, done <-chan struct{}) error {
			select {
			case <-time.After(600 * time.Millisecond):
				st.KillForever(victim)
			case <-done:
			}
			<-done
			// The threshold normally trips during the run; a quiet run
			// (victim died with no traffic left) fails over here so the
			// drain has a primary.
			if err := st.Host.Failover(victim); err != nil {
				return err
			}
			failedOver = st.Host.FailedOver(victim)
			// The promoted standby is now the victim's DLFM of record: the
			// drain and the consistency check read it from here on.
			st.DLFMs[victim] = sb.Server()
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range res.Violations {
		t.Errorf("violation: %s", v)
	}
	if !failedOver {
		t.Fatal("host never failed over")
	}
	if sb.ApplyLSN() == 0 {
		t.Fatal("standby applied nothing")
	}
	if n := sb.Server().Stats().Promotes; n != 1 {
		t.Errorf("expected 1 promotion, saw %d", n)
	}
	// The promoted standby must have finished real 2PC work after taking
	// over (commits driven by post-failover traffic or the indoubt drain).
	if got := st.DLFMs[victim].Stats().Commits; got == 0 {
		t.Error("promoted standby completed no phase-2 commits")
	}
	t.Logf("failover soak: %s; promoted applyLSN=%d indoubts=%d failovers=%d fs2FailedOver=%v",
		res.Workload, sb.ApplyLSN(), res.IndoubtsResolved,
		st.Host.Stats().Failovers, st.Host.FailedOver("fs2"))
}

// TestResolveIndoubtsAgainstPromotedStandby pins the two resolution
// outcomes after failover: a transaction whose commit decision was recorded
// but whose phase 2 was lost is re-driven to commit on the promoted
// standby, and a transaction abandoned after prepare is presumed aborted.
// Transaction A writes on fs1 and fs2, so it commits in two phases.
func TestResolveIndoubtsAgainstPromotedStandby(t *testing.T) {
	st := newStandbyStack(t, "fs1", "fs2")

	r, err := NewRunner(st, Config{Server: "fs1", Table: "fo_res", Clients: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}

	// Transaction A: the coordinator "crashes" between recording the commit
	// decision and phase 2. The DLFM keeps a prepared 'P' row; dl_outcome
	// says commit.
	for _, fs := range []string{"fs1", "fs2"} {
		if err := st.FS[fs].Create("/data/a.txt", "app", []byte("a")); err != nil {
			t.Fatal(err)
		}
	}
	fault.Default().Arm("hostdb.commit.between_phases", fault.Action{}, fault.Times(1))
	defer fault.Default().Disarm("hostdb.commit.between_phases")
	s := st.Host.Session()
	defer s.Close()
	for i, fs := range []string{"fs1", "fs2"} {
		if _, err := s.Exec(`INSERT INTO fo_res (id, owner, doc) VALUES (?, ?, ?)`,
			value.Int(int64(i+1)), value.Int(1), value.Str(hostdb.URL(fs, "/data/a.txt"))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Commit(); err == nil {
		t.Fatal("expected the between-phases interruption")
	}

	// Transaction B: prepared directly at the DLFM, then abandoned. No host
	// outcome row exists, so presumed abort must settle it.
	if err := st.FS["fs1"].Create("/data/b.txt", "app", []byte("b")); err != nil {
		t.Fatal(err)
	}
	client, err := st.Dial("fs1")
	if err != nil {
		t.Fatal(err)
	}
	const txnB = 1 << 60
	for _, req := range []any{
		rpc.BeginTxnReq{Txn: txnB},
		rpc.CreateGroupReq{Txn: txnB, Grp: 4242},
		rpc.LinkFileReq{Txn: txnB, Name: "/data/b.txt", RecID: 4242, Grp: 4242},
		rpc.PrepareReq{Txn: txnB},
	} {
		resp, err := client.Call(req)
		if err != nil {
			t.Fatal(err)
		}
		if !resp.OK() {
			t.Fatalf("%s: %s: %s", rpc.Name(req), resp.Code, resp.Msg)
		}
	}
	client.Close()

	// Let the standby stream both prepared transactions, then lose the
	// primary for good and fail over.
	target := st.DLFMs["fs1"].DB().WAL().NextLSN() - 1
	deadline := time.Now().Add(5 * time.Second)
	for st.Standbys["fs1"].ApplyLSN() < target {
		if time.Now().After(deadline) {
			t.Fatalf("standby stuck at LSN %d, want %d", st.Standbys["fs1"].ApplyLSN(), target)
		}
		time.Sleep(time.Millisecond)
	}
	st.KillForever("fs1")
	if err := st.Host.Failover("fs1"); err != nil {
		t.Fatal(err)
	}
	st.DLFMs["fs1"] = st.Standbys["fs1"].Server()

	// Failover already ran one resolution pass; drain any stragglers.
	deadline = time.Now().Add(5 * time.Second)
	for st.PreparedTxns() > 0 {
		if time.Now().After(deadline) {
			t.Fatalf("%d prepared transactions never drained", st.PreparedTxns())
		}
		if _, err := st.Host.ResolveIndoubts(); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A committed (outcome row re-driven), B aborted (presumed abort).
	if _, err := st.Dial("fs1"); err == nil {
		t.Fatal("dead primary endpoint still accepts dials")
	}
	probe := rpc.LocalPair(st.Standbys["fs1"].Server())
	resp, err := probe.Call(rpc.IsLinkedReq{Name: "/data/a.txt"})
	if err != nil || !resp.OK() {
		t.Fatalf("IsLinked a.txt: %v %s", err, resp.Msg)
	}
	if !resp.Linked {
		t.Error("committed transaction A lost its link across failover")
	}
	if status, err := st.DLFMs["fs2"].Upcaller().IsLinked("/data/a.txt"); err != nil || !status.Linked {
		t.Errorf("committed transaction A not linked on fs2: %+v %v", status, err)
	}
	resp, err = probe.Call(rpc.IsLinkedReq{Name: "/data/b.txt"})
	if err != nil || !resp.OK() {
		t.Fatalf("IsLinked b.txt: %v %s", err, resp.Msg)
	}
	if resp.Linked {
		t.Error("abandoned transaction B was committed by presumed abort")
	}
	if n := st.Host.Stats().IndoubtsResolved; n < 2 {
		t.Errorf("resolved %d indoubts, want >= 2", n)
	}
}
