package obs

import (
	"strings"
	"testing"
)

func detail(sp Span) string {
	for _, a := range sp.Attrs {
		if a.K == "detail" {
			return a.V
		}
	}
	return ""
}

func TestMarksOrderAndFilter(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	tr.Emit(1, "agent", "prepare_vote_no", "")
	tr.Emit(2, "host", "rollback", "")
	tr.Emit(1, "2pc", "phase2_retry", "abort")
	tr.Emitf(1, "2pc", "phase2_giveup", "%s", "abort")

	marks := tr.ByTxn(1)
	kinds := []string{"prepare_vote_no", "phase2_retry", "phase2_giveup"}
	if len(marks) != len(kinds) {
		t.Fatalf("ByTxn(1) = %d marks, want %d: %+v", len(marks), len(kinds), marks)
	}
	for i, m := range marks {
		if m.Op != kinds[i] || !m.Mark || m.DurNS != 0 || m.Trace != 1 {
			t.Fatalf("mark %d = %+v, want kind %q", i, m, kinds[i])
		}
		if i > 0 && (m.ID <= marks[i-1].ID || m.StartNS < marks[i-1].StartNS) {
			t.Fatalf("marks out of order: %+v after %+v", m, marks[i-1])
		}
	}
	if detail(marks[1]) != "abort" || detail(marks[2]) != "abort" || detail(marks[0]) != "" {
		t.Fatalf("details lost: %+v", marks)
	}
}

func TestRingWraps(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{SpanCapacity: 4})
	for i := int64(1); i <= 10; i++ {
		tr.Emit(i, "c", "k", "")
	}
	spans := tr.Spans()
	if len(spans) != 4 {
		t.Fatalf("len = %d, want 4 (ring capacity)", len(spans))
	}
	for i, sp := range spans {
		if sp.Trace != int64(7+i) {
			t.Fatalf("record %d trace = %d, want %d (oldest evicted)", i, sp.Trace, 7+i)
		}
	}
}

func TestTracerNamedPrefix(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	tr.Named("dlfm.fs1").Emit(1, "agent", "prepare_vote_no", "")
	spans := tr.Spans()
	if len(spans) != 1 || spans[0].Comp != "dlfm.fs1/agent" {
		t.Fatalf("spans = %+v", spans)
	}
}

func TestTracerNilSafe(t *testing.T) {
	var tr *Tracer
	tr.Emit(1, "a", "b", "")
	tr.Emitf(1, "a", "b", "%d", 2)
	if tr.Spans() != nil || tr.ByTxn(1) != nil || tr.Named("x") != nil {
		t.Fatal("nil tracer should be inert")
	}
}

// TestMarksShareTheTimeline: a transaction's marks and spans are one
// record set on one clock — SpansByTrace returns them interleaved in time
// order, RenderTree nests a mark under the span it happened in, marks obey
// the trace's sampling decision, and process events (txn 0) always land.
func TestMarksShareTheTimeline(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	fs1 := tr.Named("fs1")
	root := tr.StartRoot(7, "host", "commit")
	p2 := tr.StartSpan(root.Ctx(), "host", "phase2")
	h := fs1.StartSpan(p2.Ctx(), "agent", "handle:Commit")
	fs1.Emit(7, "2pc", "phase2_giveup", "commit") // bare trace id: no parent known
	// An engine-local id resolves through the bind table, as lock waits do.
	fs1.BindTxn(3, h.Ctx())
	fs1.Emit(3, "lock", "lock_timeout", "X on dlfm_file")
	h.End()
	p2.End()
	root.End()

	spans := tr.SpansByTrace(7)
	var ops []string
	for i, sp := range spans {
		ops = append(ops, sp.Op)
		if i > 0 && sp.StartNS < spans[i-1].StartNS {
			t.Fatalf("not chronological at %d: %+v", i, spans)
		}
	}
	if got := strings.Join(ops, " "); got != "commit phase2 handle:Commit phase2_giveup lock_timeout" {
		t.Fatalf("timeline = %q", got)
	}
	if spans[3].Parent != 0 || spans[4].Parent != h.Ctx().Span || spans[4].Comp != "fs1/lock" {
		t.Fatalf("mark parents: giveup %+v, timeout %+v", spans[3], spans[4])
	}
	tree := RenderTree(spans)
	for _, i := range []int{3, 4} {
		if !strings.HasPrefix(strings.SplitN(tree[i], "ms ", 2)[1], "      mark fs1/") {
			t.Fatalf("mark not nested under handle:Commit:\n%s", strings.Join(tree, "\n"))
		}
	}
	if n := len(tr.ByTxn(7)); n != 2 {
		t.Fatalf("ByTxn(7) = %d marks, want 2", n)
	}

	off := NewTracerCfg(TracerConfig{SampleRate: -1})
	off.Emit(7, "2pc", "phase2_giveup", "commit")
	off.Emit(0, "host", "failover", "fs1: promoting standby")
	if len(off.SpansByTrace(7)) != 0 {
		t.Fatal("unsampled transaction recorded a mark")
	}
	if ev := off.ByTxn(0); len(ev) != 1 || ev[0].Op != "failover" {
		t.Fatalf("process event lost under SampleRate < 0: %+v", ev)
	}
}
