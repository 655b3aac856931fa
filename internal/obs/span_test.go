package obs

import (
	"strings"
	"testing"
	"time"
)

func TestSpanTreeBasics(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	root := tr.StartRoot(7, "host", "commit")
	if root == nil {
		t.Fatal("root span not created (spans should be on by default)")
	}
	child := tr.StartSpan(root.Ctx(), "host", "phase1")
	leaf := tr.StartSpan(child.Ctx(), "lock", "lock_wait").Attr("target", "t.1")
	leaf.End()
	child.End()

	// Root still open: it must appear in snapshots with Open set.
	spans := tr.SpansByTrace(7)
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3: %+v", len(spans), spans)
	}
	var sawOpenRoot bool
	for _, sp := range spans {
		if sp.Op == "commit" {
			if !sp.Open || !sp.Root {
				t.Fatalf("root should be open and Root: %+v", sp)
			}
			sawOpenRoot = true
		}
		if sp.Op == "lock_wait" && (len(sp.Attrs) != 1 || sp.Attrs[0].K != "target") {
			t.Fatalf("lost attrs: %+v", sp)
		}
	}
	if !sawOpenRoot {
		t.Fatal("open root missing from SpansByTrace")
	}
	root.End()
	root.End() // idempotent

	spans = tr.SpansByTrace(7)
	for _, sp := range spans {
		if sp.Open {
			t.Fatalf("span still open after End: %+v", sp)
		}
	}
	// Parent links form the tree.
	byOp := map[string]Span{}
	for _, sp := range spans {
		byOp[sp.Op] = sp
	}
	if byOp["phase1"].Parent != byOp["commit"].ID || byOp["lock_wait"].Parent != byOp["phase1"].ID {
		t.Fatalf("broken parent chain: %+v", spans)
	}
	tree := RenderTree(spans)
	if len(tree) != 3 || !strings.Contains(tree[0], "host/commit") {
		t.Fatalf("bad RenderTree: %v", tree)
	}
}

func TestSpanSampling(t *testing.T) {
	off := NewTracerCfg(TracerConfig{SampleRate: -1})
	if off.Sampled(1) {
		t.Fatal("negative rate should disable sampling")
	}
	if sp := off.StartRoot(1, "host", "commit"); sp != nil {
		t.Fatal("unsampled trace produced a span")
	}
	// Nil handles are fully inert.
	var nilH *SpanHandle
	nilH.Attr("k", "v").End()
	if nilH.Ctx().Valid() {
		t.Fatal("nil handle context should be invalid")
	}

	partial := NewTracerCfg(TracerConfig{SampleRate: 0.5})
	in, out := 0, 0
	for txn := int64(1); txn <= 1000; txn++ {
		if partial.Sampled(txn) != partial.Sampled(txn) {
			t.Fatal("sampling decision not deterministic")
		}
		if partial.Sampled(txn) {
			in++
		} else {
			out++
		}
	}
	if in < 400 || in > 600 {
		t.Fatalf("0.5 sampling kept %d/1000", in)
	}
	if sp := partial.StartSpanInTrace(0, 0, "x", "y"); sp != nil {
		t.Fatal("trace id 0 must never be sampled")
	}
	_ = out
}

func TestTxnBinding(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	ctx := SpanCtx{Trace: 42, Span: 9}
	tr.BindTxn(5, ctx)
	if got := tr.CtxOf(5); got != ctx {
		t.Fatalf("CtxOf = %+v, want %+v", got, ctx)
	}
	tr.UnbindTxn(5)
	if tr.CtxOf(5).Valid() {
		t.Fatal("binding survived UnbindTxn")
	}
	// Named tracers share the span store but NOT the bind table: each
	// engine numbers its local txns from 1, so host txn 6 and fs1's txn 6
	// are different transactions and must not clobber each other.
	named := tr.Named("fs1")
	named.BindTxn(6, ctx)
	if tr.CtxOf(6).Valid() {
		t.Fatal("bind leaked across engines: parent tracer sees fs1's txn 6")
	}
	if got := named.CtxOf(6); got != ctx {
		t.Fatalf("named tracer lost its own bind: %+v", got)
	}
	tr.BindTxn(6, SpanCtx{Trace: 43, Span: 1})
	named.UnbindTxn(6)
	if !tr.CtxOf(6).Valid() {
		t.Fatal("fs1's UnbindTxn clobbered the host engine's txn 6 binding")
	}
	tr.UnbindTxn(6)
	sp := named.StartSpan(ctx, "agent", "handle:Prepare")
	sp.End()
	spans := tr.SpansByTrace(42)
	if len(spans) != 1 || spans[0].Comp != "fs1/agent" {
		t.Fatalf("named span missing prefix or store: %+v", spans)
	}
}

// push injects a hand-built completed span, bypassing the clock, so the
// attribution arithmetic is tested deterministically.
func push(tr *Tracer, sp Span) {
	tr.s.mu.Lock()
	tr.s.pushLocked(sp)
	tr.s.mu.Unlock()
}

func TestAttributionSelfTime(t *testing.T) {
	tr := NewTracerCfg(TracerConfig{})
	const trace = 11
	ms := int64(time.Millisecond)
	// commit(100ms) ├ phase1(60ms) ─ rpc:Prepare(40ms) ─ handle(35ms) ─ lock_wait(10ms)
	//               └ phase2(30ms)
	push(tr, Span{Trace: trace, ID: 1, Op: "commit", Comp: "host", Root: true, DurNS: 100 * ms})
	push(tr, Span{Trace: trace, ID: 2, Parent: 1, Op: "phase1", Comp: "host", StartNS: 0, DurNS: 60 * ms})
	push(tr, Span{Trace: trace, ID: 3, Parent: 2, Op: "rpc:Prepare", Comp: "host", StartNS: 5 * ms, DurNS: 40 * ms})
	push(tr, Span{Trace: trace, ID: 4, Parent: 3, Op: "handle:Prepare", Comp: "agent", StartNS: 6 * ms, DurNS: 35 * ms})
	push(tr, Span{Trace: trace, ID: 5, Parent: 4, Op: "lock_wait", Comp: "lock", StartNS: 7 * ms, DurNS: 10 * ms})
	push(tr, Span{Trace: trace, ID: 6, Parent: 1, Op: "phase2", Comp: "host", StartNS: 65 * ms, DurNS: 30 * ms})

	a := tr.Attribution(trace)
	if a.RootNS != 100*ms {
		t.Fatalf("RootNS = %d", a.RootNS)
	}
	want := map[string]int64{
		"phase1":    20 * ms, // 60 - 40 (rpc child)
		"rpc":       30 * ms, // 40 - 10 (lock_wait under the unbucketed handle)
		"lock_wait": 10 * ms,
		"phase2":    30 * ms,
	}
	for b, ns := range want {
		if a.Buckets[b] != ns {
			t.Fatalf("bucket %s = %v, want %v (all: %v)", b, a.Buckets[b], ns, a.Buckets)
		}
	}
	// Self times telescope: buckets + other == root exactly.
	var sum int64
	for _, ns := range a.Buckets {
		sum += ns
	}
	if sum+a.OtherNS != a.RootNS {
		t.Fatalf("buckets(%d) + other(%d) != root(%d)", sum, a.OtherNS, a.RootNS)
	}
	if a.OtherNS != 10*ms { // 100 - (60 + 30)
		t.Fatalf("OtherNS = %v", a.OtherNS)
	}
}

func TestSlowLogKeepsSlowest(t *testing.T) {
	l := slowLog{threshold: 10, keep: 2}
	for _, d := range []int64{5, 20, 30, 10, 25} {
		if l.wants(d) {
			l.add(SlowEntry{Trace: d, DurNS: d})
		}
	}
	entries := l.entries()
	if len(entries) != 2 || entries[0].DurNS != 30 || entries[1].DurNS != 25 {
		t.Fatalf("kept %+v, want the two slowest (30, 25) slowest first", entries)
	}
	if l.wants(9) || l.wants(25) || !l.wants(26) {
		t.Fatal("wants: below threshold or not beating the fastest retained entry must be refused")
	}

	// End captures a slow root with its whole tree. The root is backdated
	// instead of slept through.
	backdate := func(tr *Tracer, h *SpanHandle) {
		tr.s.mu.Lock()
		tr.s.open[h.Ctx().Span].StartNS -= int64(time.Second)
		tr.s.mu.Unlock()
	}
	tr := NewTracerCfg(TracerConfig{})
	root := tr.StartRoot(9, "host", "commit")
	tr.StartSpan(root.Ctx(), "host", "phase1").End()
	tr.Emit(9, "2pc", "phase2_giveup", "commit")
	backdate(tr, root)
	root.End()
	got := tr.SlowEntries()
	if len(got) != 1 || got[0].Trace != 9 || got[0].DurNS < int64(time.Second) || len(got[0].Spans) != 3 {
		t.Fatalf("slow capture = %+v, want txn 9 with root, child and mark", got)
	}

	disabled := NewTracerCfg(TracerConfig{SlowThreshold: -1})
	root = disabled.StartRoot(9, "host", "commit")
	backdate(disabled, root)
	root.End()
	if len(disabled.SlowEntries()) != 0 {
		t.Fatal("negative threshold should disable the slow log")
	}
}

func TestFlightRecorderRing(t *testing.T) {
	var nilF *FlightRecorder
	nilF.Record(FlightEntry{Kind: "timeout"}) // nil-safe
	if nilF.Entries() != nil {
		t.Fatal("nil recorder should return no entries")
	}

	f := NewFlightRecorder(2)
	for i := int64(1); i <= 3; i++ {
		f.Record(FlightEntry{Kind: "timeout", Victim: i})
	}
	got := f.Entries()
	if len(got) != 2 || got[0].Victim != 2 || got[1].Victim != 3 {
		t.Fatalf("ring contents wrong: %+v", got)
	}
	if got[0].Seq >= got[1].Seq {
		t.Fatal("sequence numbers not monotonic")
	}
}

func TestHistogramExemplar(t *testing.T) {
	h := NewHistogram()
	h.ObserveEx(5*time.Millisecond, 100)
	h.ObserveEx(50*time.Millisecond, 200)
	h.ObserveEx(10*time.Millisecond, 300) // smaller: must not displace
	d, trace := h.Exemplar()
	if trace != 200 || d != 50*time.Millisecond {
		t.Fatalf("exemplar = (%v, %d), want (50ms, 200)", d, trace)
	}

	reg := New()
	reg.RegisterHistogram("x_seconds", h)
	var sb strings.Builder
	if err := reg.WriteProm(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), `# {trace_id="200"}`) {
		t.Fatalf("exemplar missing from exposition:\n%s", sb.String())
	}
}
