package workload

import (
	"testing"

	"repro/internal/hostdb"
	"repro/internal/value"
)

// TestHostDLFMConsistency verifies the core invariant after a concurrent
// run: every DATALINK value the host holds corresponds to a linked DLFM
// entry. On failure it dumps the divergent entries for diagnosis. The run
// is also E1's shape: under the production configuration (next-key
// locking off, hand-crafted statistics) the paper's mix commits without a
// deadlock storm.
func TestHostDLFMConsistency(t *testing.T) {
	st := testStack(t)
	r, err := NewRunner(st, Config{
		Clients:      4,
		OpsPerClient: 25,
		Mix:          DefaultMix(),
		PreloadRows:  20,
		Seed:         1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Prepare(); err != nil {
		t.Fatal(err)
	}
	res, err := r.Run()
	if err != nil {
		t.Fatal(err)
	}
	if res.Commits == 0 {
		t.Fatal("the run committed nothing")
	}
	if dl := st.EngineStats().Lock.Deadlocks; dl*1000 > 50*res.Commits {
		t.Errorf("%d DLFM deadlocks in %d commits, over 50 per 1000 under the production configuration", dl, res.Commits)
	}
	s := st.Host.Session()
	defer s.Close()
	rows, _ := s.Query(`SELECT id, doc FROM wl_files`)
	s.Commit()
	for _, row := range rows {
		_, path, _ := hostdb.ParseURL(row[1].Text())
		status, _ := st.DLFMs["fs1"].Upcaller().IsLinked(path)
		if !status.Linked {
			c := st.DLFMs["fs1"].DB().Connect()
			entries, _ := c.Query(`SELECT name, state, chkflag, lnk_txn, unlnk_txn, del_txn FROM dlfm_file WHERE name = ?`, value.Str(path))
			c.Commit()
			t.Logf("host row id=%v doc=%s", row[0], row[1].Text())
			for _, e := range entries {
				t.Logf("  dlfm entry: %v", e)
			}
			if len(entries) == 0 {
				t.Logf("  (no dlfm entries at all)")
			}
			t.Fail()
		}
	}
}
