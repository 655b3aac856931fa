package experiments

import (
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/hostdb"
	"repro/internal/value"
	"repro/internal/workload"
)

// E6Report reproduces Section 4's distributed-deadlock analysis, the
// reason "commit transaction API must be synchronous with respect to host
// database". The paper's scenario, reconstructed step by step:
//
//	T1 commits; its phase-2 commit processing at the DLFM takes time and
//	must re-acquire locks (Figure 4). With the ASYNCHRONOUS commit API the
//	host releases T1's agent immediately and starts T11; T2 slips in and
//	takes a DLFM lock T1's commit needs; T11 takes an X lock on host
//	record x and then issues a LinkFile that blocks on message send (the
//	child agent is still busy with T1's commit); finally T2 needs host
//	record x. Cycle: T1-commit → T2's DLFM lock → T2 → host record x →
//	T11 → child-agent channel → T1-commit. No local detector sees it;
//	only the lock timeout (E7's mechanism) breaks it, and T1's phase-2
//	retry loop keeps colliding until the cycle dissolves.
//
// With the SYNCHRONOUS commit API T11 cannot start until T1's commit
// processing finished, so the cycle never forms.
//
// T1 also links a file on a second DLFM: a transaction with one DLFM
// commits in one phase, with no phase 2 to run asynchronously.
type E6Report struct {
	Rows []E6Row
}

// E6Row is one commit-mode outcome.
type E6Row struct {
	Sync     bool
	Stalled  bool
	Elapsed  time.Duration
	Timeouts int64 // lock timeouts needed to dissolve the cycle
	Retries  int64 // DLFM phase-2 retry attempts
}

// RunE6SyncCommit plays the scripted scenario under both commit modes.
func RunE6SyncCommit(opt Options) (*E6Report, error) {
	rep := &E6Report{}
	for _, sync := range []bool{false, true} {
		row, err := runE6Once(sync)
		if err != nil {
			return nil, err
		}
		rep.Rows = append(rep.Rows, row)
	}
	return rep, nil
}

func runE6Once(sync bool) (E6Row, error) {
	// The paper's DLFM commit processing took real time; Phase2Delay
	// models it and opens the interleaving window deterministically. Lock
	// timeouts bound the livelock so the experiment terminates (the paper
	// ran with 60 s, which is why the stall mattered).
	const (
		commitWork  = 150 * time.Millisecond
		dlfmTimeout = 250 * time.Millisecond
		hostTimeout = 500 * time.Millisecond
	)
	st, err := workload.NewStack(workload.StackConfig{
		Servers: []string{"fs1", "fs2"},
		MutateHost: func(h *hostdb.Config) {
			h.SyncCommit = sync
			h.DB.LockTimeout = hostTimeout
		},
		MutateDLFM: func(_ string, c *core.Config) {
			c.DB.LockTimeout = dlfmTimeout
			c.Phase2Delay = commitWork
		},
	})
	if err != nil {
		return E6Row{}, err
	}
	defer st.Close()

	if err := st.Host.CreateTable(
		`CREATE TABLE e6 (id BIGINT NOT NULL, doc VARCHAR, doc2 VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc"}, hostdb.DatalinkCol{Name: "doc2"},
	); err != nil {
		return E6Row{}, err
	}
	hc := st.Host.Engine().Connect()
	if _, err := hc.Exec(`CREATE UNIQUE INDEX e6_id ON e6 (id)`); err != nil {
		return E6Row{}, err
	}
	big := int64(10_000_000)
	st.Host.Engine().SetStats("e6", big, map[string]int64{"id": big, "doc": big})
	fs := st.FS["fs1"]
	for _, p := range []string{"/f1", "/f11"} {
		if err := fs.Create(p, "app", []byte("x")); err != nil {
			return E6Row{}, err
		}
	}
	if err := st.FS["fs2"].Create("/g1", "app", []byte("x")); err != nil {
		return E6Row{}, err
	}
	// Host record x (id 100) exists up front.
	admin := st.Host.Session()
	if _, err := admin.Exec(`INSERT INTO e6 (id, doc) VALUES (100, NULL)`); err != nil {
		return E6Row{}, err
	}
	if err := admin.Commit(); err != nil {
		return E6Row{}, err
	}
	admin.Close()

	sessA := st.Host.Session() // T1, then T11 on the same agent connection
	sessB := st.Host.Session() // T2
	defer sessA.Close()
	defer sessB.Close()

	// T1 links /f1, and /g1 on fs2.
	if _, err := sessA.Exec(`INSERT INTO e6 (id, doc, doc2) VALUES (1, ?, ?)`,
		value.Str(hostdb.URL("fs1", "/f1")), value.Str(hostdb.URL("fs2", "/g1"))); err != nil {
		return E6Row{}, err
	}

	start := time.Now()
	// Commit T1. Async: returns after the decision; phase 2 (with its
	// injected work time) runs on the same child-agent connection in the
	// background. Sync: returns only after phase 2.
	if err := sessA.Commit(); err != nil {
		return E6Row{}, err
	}

	// T2 unlinks /f1 — in async mode this lands inside T1's commit window
	// and X-locks the File-table entry T1's commit needs.
	errB1 := func() error {
		_, err := sessB.Exec(`UPDATE e6 SET doc = NULL WHERE id = 1`)
		return err
	}()
	if errB1 != nil && sessB.TxnID() != 0 {
		sessB.Rollback()
	}

	// T11 (same agent as T1): X lock on host record 100, then a LinkFile
	// that must wait for the busy child agent.
	if _, err := sessA.Exec(`UPDATE e6 SET doc = NULL WHERE id = 100`); err != nil {
		return E6Row{}, err
	}
	t11Done := make(chan error, 1)
	go func() {
		_, err := sessA.Exec(`INSERT INTO e6 (id, doc) VALUES (11, ?)`,
			value.Str(hostdb.URL("fs1", "/f11")))
		if err == nil {
			err = sessA.Commit()
		}
		t11Done <- err
	}()
	time.Sleep(10 * time.Millisecond)

	// T2 now needs host record 100 — the final edge of the cycle.
	if errB1 == nil {
		if _, err := sessB.Exec(`UPDATE e6 SET doc = NULL WHERE id = 100`); err == nil {
			if err := sessB.Commit(); err != nil && sessB.TxnID() != 0 {
				sessB.Rollback()
			}
		} else if sessB.TxnID() != 0 {
			sessB.Rollback()
		}
	}
	if err := <-t11Done; err != nil && sessA.TxnID() != 0 {
		sessA.Rollback()
	}

	elapsed := time.Since(start)
	es := st.EngineStats()
	ds := st.DLFMStats()
	hostTimeouts := st.Host.Engine().Stats().Lock.Timeouts
	return E6Row{
		Sync:     sync,
		Stalled:  es.Lock.Timeouts+hostTimeouts > 0,
		Elapsed:  elapsed,
		Timeouts: es.Lock.Timeouts + hostTimeouts,
		Retries:  ds.Phase2Retries,
	}, nil
}

// String renders the report.
func (r *E6Report) String() string {
	t := &table{header: []string{"commit API", "deadlock formed", "elapsed", "lock timeouts", "phase-2 retries"}}
	for _, row := range r.Rows {
		mode := "ASYNC (deadlock-prone)"
		if row.Sync {
			mode = "SYNC (paper's rule)"
		}
		t.add(mode, fmt.Sprintf("%v", row.Stalled), fmtD(row.Elapsed), fmtI(row.Timeouts), fmtI(row.Retries))
	}
	return "E6 — synchronous vs asynchronous commit API (paper Section 4 distributed deadlock)\n" + t.String() +
		"shape: async forms the T1/T11/T2 cycle and stalls until lock timeouts dissolve it; sync never forms it\n"
}
