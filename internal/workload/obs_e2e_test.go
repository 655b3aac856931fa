package workload

import (
	"strings"
	"testing"

	"repro/internal/hostdb"
	"repro/internal/obs"
	"repro/internal/value"
)

// TestTracedCommitChain runs one link transaction writing on two DLFMs
// end to end and asserts the shared tracer holds the ordered 2PC lifecycle
// for that host transaction as spans: statement → link RPC → agent link →
// commit root → prepare → phase 2 — and, nothing having gone wrong, no
// marks.
func TestTracedCommitChain(t *testing.T) {
	st := testStack(t, func(c *StackConfig) { c.Servers = []string{"fs1", "fs2"} })
	if err := st.Host.CreateTable(
		`CREATE TABLE docs (id BIGINT NOT NULL, doc VARCHAR, doc2 VARCHAR)`,
		hostdb.DatalinkCol{Name: "doc"}, hostdb.DatalinkCol{Name: "doc2"},
	); err != nil {
		t.Fatal(err)
	}
	for _, fs := range []string{"fs1", "fs2"} {
		if err := st.FS[fs].Create("/data/a1", "app", []byte("x")); err != nil {
			t.Fatal(err)
		}
	}

	s := st.Host.Session()
	defer s.Close()
	if _, err := s.Exec(`INSERT INTO docs (id, doc, doc2) VALUES (?, ?, ?)`, value.Int(1),
		value.Str(hostdb.URL("fs1", "/data/a1")), value.Str(hostdb.URL("fs2", "/data/a1"))); err != nil {
		t.Fatal(err)
	}
	txn := s.TxnID()
	if txn == 0 {
		t.Fatal("no transaction id")
	}
	if err := s.Commit(); err != nil {
		t.Fatal(err)
	}

	spans := st.Tracer.SpansByTrace(txn)
	if len(spans) == 0 {
		t.Fatal("no spans for the transaction")
	}
	tree := strings.Join(obs.RenderTree(spans), "\n")
	for i := 1; i < len(spans); i++ {
		if spans[i].StartNS < spans[i-1].StartNS {
			t.Fatalf("spans out of order at %d:\n%s", i, tree)
		}
	}

	// The lifecycle must appear in protocol order. DLFM spans carry the
	// server-name prefix from Tracer.Named, and the link names its file.
	want := []string{
		"host/stmt",                 // host began the transaction
		"host/rpc:LinkFile",         // an RPC crossed the wire
		"fs1/agent/handle:LinkFile", // the DLFM agent applied LinkFile
		"host/commit",               // the commit root
		"fs1/agent/handle:Prepare",  // phase 1 vote
		"host/phase2",               // decision hardened, phase 2 begun
		"fs1/agent/handle:Commit",   // DLFM completed phase 2
	}
	pos := 0
	for _, sp := range spans {
		if pos < len(want) && sp.Comp+"/"+sp.Op == want[pos] {
			pos++
		}
	}
	if pos != len(want) {
		t.Fatalf("missing %q from the chain:\n%s", want[pos], tree)
	}
	if !strings.Contains(tree, "fs1/agent/handle:LinkFile file=/data/a1") {
		t.Fatalf("link span does not name its file:\n%s", tree)
	}
	if marks := st.Tracer.ByTxn(txn); len(marks) != 0 {
		t.Fatalf("a clean commit left marks (each restates a span): %+v", marks)
	}

	// The DLFM's registry must agree with its legacy Stats() snapshot —
	// they read the same counters.
	dlfm := st.DLFMs["fs1"]
	snap := dlfm.Stats()
	if got := counterValue(t, dlfm.Obs(), "dlfm_links_total"); got != snap.Links || got == 0 {
		t.Fatalf("dlfm_links_total = %d, Stats().Links = %d", got, snap.Links)
	}
	if got := counterValue(t, dlfm.Obs(), "dlfm_commits_total"); got != snap.Commits || got == 0 {
		t.Fatalf("dlfm_commits_total = %d, Stats().Commits = %d", got, snap.Commits)
	}
}

func counterValue(t *testing.T, reg *obs.Registry, name string) int64 {
	t.Helper()
	snap := reg.Snapshot()
	v, exists := snap[name]
	if !exists {
		t.Fatalf("metric %s not registered", name)
	}
	n, isInt := v.(int64)
	if !isInt {
		t.Fatalf("metric %s is %T, want counter", name, v)
	}
	return n
}
