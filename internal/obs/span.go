package obs

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// The span store is the program's only trace record: every sampled
// transaction produces a tree of timed intervals — host commit at the root,
// phase-1/phase-2 RPC calls per participant below it, agent dispatch, lock
// waits, and WAL fsyncs at the leaves — stitched across processes by
// carrying SpanCtx in the RPC envelope, plus zero-duration marks (Emit) for
// the rare facts no interval carries. Attribution, the slow log and the
// flight recorder are folds of it, computed when asked for. The paper's
// hardest incidents (escalation "bringing the system to its knees",
// next-key deadlocks, the 60 s distributed timeout) were all diagnosis
// failures; the span tree is the instrument DLFM's builders did not have.

// Default tracer-config knobs; see TracerConfig.
const (
	DefaultSpanCapacity  = 8192
	DefaultSlowKeep      = 16
	DefaultSlowThreshold = 100 * time.Millisecond

	// maxSpansPerEntry bounds the span trees captured into slow-log and
	// flight-recorder entries so a pathological transaction cannot pin
	// unbounded memory.
	maxSpansPerEntry = 512

	// maxOpenSpans bounds the live-span table. Beyond it new spans are
	// recorded only on End (no in-flight visibility) rather than growing
	// without limit when instrumentation leaks unended spans.
	maxOpenSpans = 16384

	// maxTxnBinds bounds the engine-txn -> span-context table.
	maxTxnBinds = 16384
)

// SpanCtx identifies a position in a trace: the trace (= host transaction
// id) and the current span within it. The zero value means "unsampled";
// every producer treats it as a no-op. The RPC layer carries it in each
// request frame.
type SpanCtx struct {
	Trace int64
	Span  int64
}

// Valid reports whether the context names a sampled trace.
func (c SpanCtx) Valid() bool { return c.Trace != 0 }

// Attr is one key/value annotation on a span.
type Attr struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Span is one timed interval in a trace tree, or (Mark) one instant in it.
// StartNS is monotonic (nanoseconds since the tracer started), so spans and
// marks from every component interleave on one timeline. Open flags a span
// still in flight when it was snapshotted (its DurNS is elapsed-so-far).
type Span struct {
	Trace   int64  `json:"trace"`
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Comp    string `json:"comp"`
	Op      string `json:"op"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
	Root    bool   `json:"root,omitempty"`
	Open    bool   `json:"open,omitempty"`
	Mark    bool   `json:"mark,omitempty"`
	Attrs   []Attr `json:"attrs,omitempty"`
}

// TracerConfig sizes a tracer. Zero values take defaults, so the zero
// config is the stock tracer: full sampling, an 8 Ki span ring, a 100 ms
// slow-transaction threshold keeping the 16 slowest trees.
type TracerConfig struct {
	// SpanCapacity is the ring size (completed spans and marks).
	SpanCapacity int
	// SampleRate selects which transactions are recorded: 0 means the
	// default (sample everything), negative disables sampling entirely,
	// and 0 < rate <= 1 samples that fraction of transactions by a
	// deterministic hash of the txn id (so reruns trace the same txns).
	SampleRate float64
	// SlowThreshold is the root-span duration at or above which a commit
	// is captured into the slow-transaction log. 0 means the default;
	// negative disables the slow log.
	SlowThreshold time.Duration
	// SlowKeep is how many slowest transactions the slow log retains.
	SlowKeep int
}

func (c TracerConfig) withDefaults() TracerConfig {
	if c.SpanCapacity <= 0 {
		c.SpanCapacity = DefaultSpanCapacity
	}
	if c.SampleRate == 0 {
		c.SampleRate = 1
	}
	if c.SlowThreshold == 0 {
		c.SlowThreshold = DefaultSlowThreshold
	}
	if c.SlowKeep <= 0 {
		c.SlowKeep = DefaultSlowKeep
	}
	return c
}

// spanStore is the state Named tracers share: a bounded ring of completed
// spans and marks plus a table of still-open spans, so a victim captured
// mid-flight (lock timeout, deadlock) still shows its partial tree.
type spanStore struct {
	start time.Time
	rate  float64
	slow  slowLog

	mu     sync.Mutex
	nextID int64
	buf    []Span
	next   int
	full   bool
	open   map[int64]*Span
}

// txnBinds maps one engine's local txn ids to span contexts. It is held
// per Tracer instance, not in the shared spanStore: every engine allocates
// txn ids from its own sequence starting at 1, so host txn 3 and a DLFM's
// txn 3 are different transactions. A shared table would let one engine's
// commit-time UnbindTxn clobber another engine's live binding.
type txnBinds struct {
	mu sync.Mutex
	m  map[int64]SpanCtx
}

// NewTracerCfg returns a tracer; the zero config takes every default.
func NewTracerCfg(cfg TracerConfig) *Tracer {
	cfg = cfg.withDefaults()
	return &Tracer{
		s: &spanStore{
			start: time.Now(),
			rate:  cfg.SampleRate,
			buf:   make([]Span, cfg.SpanCapacity),
			open:  make(map[int64]*Span),
			slow:  slowLog{threshold: int64(cfg.SlowThreshold), keep: cfg.SlowKeep},
		},
		binds: &txnBinds{m: make(map[int64]SpanCtx)},
	}
}

// Sampled reports whether the given transaction's spans are recorded. The
// decision is a deterministic hash of the txn id so a replayed run samples
// the same transactions.
func (t *Tracer) Sampled(txn int64) bool {
	if t == nil || txn == 0 {
		return false
	}
	s := t.s
	if s.rate >= 1 {
		return true
	}
	if s.rate <= 0 {
		return false
	}
	// splitmix64 finalizer: uniform over txn ids that are themselves
	// sequential or timestamp-derived.
	h := uint64(txn)
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return float64(h%10000) < s.rate*10000
}

// SpanHandle is a live span. The nil handle is valid and inert, so callers
// instrument unconditionally and pay nothing when the trace is unsampled.
type SpanHandle struct {
	t   *Tracer
	ctx SpanCtx
}

// start creates a span and registers it in the open table. Every creation
// path re-checks the (deterministic) sampling decision, so an unsampled
// trace produces no spans no matter which layer asks.
func (t *Tracer) start(trace, parent int64, comp, op string, root bool) *SpanHandle {
	if !t.Sampled(trace) {
		return nil
	}
	s := t.s
	at := int64(time.Since(s.start))
	s.mu.Lock()
	s.nextID++
	id := s.nextID
	sp := &Span{
		Trace:   trace,
		ID:      id,
		Parent:  parent,
		Comp:    t.prefix + comp,
		Op:      op,
		StartNS: at,
		Root:    root,
	}
	if len(s.open) < maxOpenSpans {
		s.open[id] = sp
	} else {
		// Table full (leaked spans?): record a zero-duration marker now
		// rather than losing the span entirely.
		sp.DurNS = 0
		s.pushLocked(*sp)
	}
	s.mu.Unlock()
	return &SpanHandle{t: t, ctx: SpanCtx{Trace: trace, Span: id}}
}

// StartRoot opens the root span of a trace (the host commit). Only root
// spans trigger slow-log capture when they end.
func (t *Tracer) StartRoot(trace int64, comp, op string) *SpanHandle {
	return t.start(trace, 0, comp, op, true)
}

// StartSpan opens a child span under parent. A zero parent context yields
// a nil (inert) handle, which is how unsampled traces cost nothing.
func (t *Tracer) StartSpan(parent SpanCtx, comp, op string) *SpanHandle {
	if !parent.Valid() {
		return nil
	}
	return t.start(parent.Trace, parent.Span, comp, op, false)
}

// StartSpanInTrace opens a span in an existing trace under an explicit
// parent span id (0 = top level). Used where only the trace id is known —
// daemons resuming work for a committed transaction, standby redo apply.
func (t *Tracer) StartSpanInTrace(trace, parent int64, comp, op string) *SpanHandle {
	return t.start(trace, parent, comp, op, false)
}

// Ctx returns the span's context for propagation. Nil-safe (returns the
// zero, unsampled context).
func (h *SpanHandle) Ctx() SpanCtx {
	if h == nil {
		return SpanCtx{}
	}
	return h.ctx
}

// Attr annotates the span. Nil-safe; returns h for chaining.
func (h *SpanHandle) Attr(k, v string) *SpanHandle {
	if h == nil {
		return h
	}
	s := h.t.s
	s.mu.Lock()
	if sp, ok := s.open[h.ctx.Span]; ok {
		sp.Attrs = append(sp.Attrs, Attr{K: k, V: v})
	}
	s.mu.Unlock()
	return h
}

// End closes the span, moving it from the open table into the completed
// ring. Ending twice is a no-op. If the span is a root at or above the
// slow threshold, the whole trace tree is captured into the slow log.
func (h *SpanHandle) End() {
	if h == nil {
		return
	}
	s := h.t.s
	at := int64(time.Since(s.start))
	s.mu.Lock()
	sp, ok := s.open[h.ctx.Span]
	if !ok {
		s.mu.Unlock()
		return
	}
	delete(s.open, h.ctx.Span)
	sp.DurNS = at - sp.StartNS
	s.pushLocked(*sp)
	var slowSpans []Span
	if sp.Root && s.slow.wants(sp.DurNS) {
		slowSpans = s.byTraceLocked(sp.Trace, at)
	}
	s.mu.Unlock()
	if slowSpans != nil {
		s.slow.add(SlowEntry{Trace: sp.Trace, DurNS: sp.DurNS, AtNS: at, Spans: slowSpans})
	}
}

// pushLocked appends a completed span to the ring. Caller holds s.mu.
func (s *spanStore) pushLocked(sp Span) {
	s.buf[s.next] = sp
	s.next++
	if s.next == len(s.buf) {
		s.next = 0
		s.full = true
	}
}

// BindTxn associates an engine-local transaction id with a span context,
// bridging the two id spaces: the host hands out globally-unique txn ids
// (the trace id), while each engine's lock manager and WAL see that
// engine's own sequence. Lock waits look the context up via CtxOf. The
// table is scoped to this Tracer instance (one per engine — Named hands
// out a fresh one), because local txn ids collide across engines.
func (t *Tracer) BindTxn(txn int64, ctx SpanCtx) {
	if t == nil || txn == 0 || !ctx.Valid() {
		return
	}
	b := t.binds
	b.mu.Lock()
	if _, ok := b.m[txn]; ok || len(b.m) < maxTxnBinds {
		b.m[txn] = ctx
	}
	b.mu.Unlock()
}

// UnbindTxn drops a BindTxn association (at commit/rollback).
func (t *Tracer) UnbindTxn(txn int64) {
	if t == nil {
		return
	}
	b := t.binds
	b.mu.Lock()
	delete(b.m, txn)
	b.mu.Unlock()
}

// CtxOf returns the span context bound to an engine-local txn id, or the
// zero context.
func (t *Tracer) CtxOf(txn int64) SpanCtx {
	if t == nil {
		return SpanCtx{}
	}
	b := t.binds
	b.mu.Lock()
	ctx := b.m[txn]
	b.mu.Unlock()
	return ctx
}

// Spans returns a copy of the completed-span ring plus all open spans
// (marked Open, DurNS = elapsed so far), ordered by start time.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	s := t.s
	at := int64(time.Since(s.start))
	s.mu.Lock()
	out := s.allLocked(at)
	s.mu.Unlock()
	sortSpans(out)
	return out
}

// SpansByTrace returns one trace's spans (completed + open), ordered by
// start time.
func (t *Tracer) SpansByTrace(trace int64) []Span {
	if t == nil {
		return nil
	}
	s := t.s
	at := int64(time.Since(s.start))
	s.mu.Lock()
	out := s.byTraceLocked(trace, at)
	s.mu.Unlock()
	sortSpans(out)
	return out
}

func (s *spanStore) allLocked(at int64) []Span {
	var out []Span
	if s.full {
		out = make([]Span, 0, len(s.buf)+len(s.open))
		out = append(out, s.buf[s.next:]...)
		out = append(out, s.buf[:s.next]...)
	} else {
		out = append(out, s.buf[:s.next]...)
	}
	for _, sp := range s.open {
		c := *sp
		c.Open = true
		c.DurNS = at - c.StartNS
		out = append(out, c)
	}
	return out
}

// byTraceLocked copies out one trace's records, oldest first, at most
// maxSpansPerEntry of them. It runs under the mutex every End needs (and
// inside End for slow-root capture), so it walks the ring by index and
// copies only the matches.
func (s *spanStore) byTraceLocked(trace int64, at int64) []Span {
	var out []Span
	scan := func(buf []Span) {
		for i := range buf {
			if len(out) == maxSpansPerEntry {
				return
			}
			if buf[i].Trace == trace {
				out = append(out, buf[i])
			}
		}
	}
	if s.full {
		scan(s.buf[s.next:])
	}
	scan(s.buf[:s.next])
	for _, sp := range s.open {
		if len(out) == maxSpansPerEntry {
			break
		}
		if sp.Trace == trace {
			c := *sp
			c.Open = true
			c.DurNS = at - c.StartNS
			out = append(out, c)
		}
	}
	return out
}

func sortSpans(spans []Span) {
	sort.Slice(spans, func(i, j int) bool {
		if spans[i].StartNS != spans[j].StartNS {
			return spans[i].StartNS < spans[j].StartNS
		}
		return spans[i].ID < spans[j].ID
	})
}

// SlowEntries returns the retained slow-transaction captures, slowest
// first. Nil-safe.
func (t *Tracer) SlowEntries() []SlowEntry {
	if t == nil {
		return nil
	}
	return t.s.slow.entries()
}

// RenderTree renders a trace's spans and marks as an indented timeline,
// parents before children, for the /debug/txn endpoint and test failures.
// A mark emitted under a bare trace id knows no parent; it is shown under
// the latest-started span that contains its instant.
func RenderTree(spans []Span) []string {
	children := make(map[int64][]Span)
	byID := make(map[int64]bool, len(spans))
	for _, sp := range spans {
		byID[sp.ID] = true
	}
	var roots []Span
	for _, sp := range spans {
		parent := sp.Parent
		if sp.Mark && !byID[parent] {
			parent = enclosing(spans, sp.StartNS)
		}
		if parent != 0 && byID[parent] {
			children[parent] = append(children[parent], sp)
		} else {
			roots = append(roots, sp)
		}
	}
	var out []string
	var walk func(sp Span, depth int)
	walk = func(sp Span, depth int) {
		dur := fmt.Sprintf("+%.3fms", float64(sp.DurNS)/1e6)
		if sp.Mark {
			dur = "mark"
		}
		state := ""
		if sp.Open {
			state = " (open)"
		}
		attrs := ""
		for _, a := range sp.Attrs {
			attrs += fmt.Sprintf(" %s=%s", a.K, a.V)
		}
		out = append(out, fmt.Sprintf("%10.3fms %s%s %s/%s%s%s",
			float64(sp.StartNS)/1e6, strings.Repeat("  ", depth),
			dur, sp.Comp, sp.Op, attrs, state))
		for _, c := range children[sp.ID] {
			walk(c, depth+1)
		}
	}
	for _, r := range roots {
		walk(r, 0)
	}
	return out
}

// enclosing returns the id of the latest-started interval among spans that
// contains the instant at, 0 if none does.
func enclosing(spans []Span, at int64) int64 {
	var id, start int64 = 0, -1
	for i := range spans {
		sp := &spans[i]
		if !sp.Mark && sp.StartNS <= at && at <= sp.StartNS+sp.DurNS && sp.StartNS >= start {
			id, start = sp.ID, sp.StartNS
		}
	}
	return id
}

// --- Latency attribution ----------------------------------------------------

// Attribution buckets one transaction's span time the way Gray & Lamport
// cost out 2PC: per-phase message latency plus stable-write latency. Each
// bucketed span contributes its self time (duration minus its nearest
// bucketed descendants), so phase1 + phase2 ≈ root duration while the
// inner lock_wait/wal_fsync/rpc buckets report where the phase time went.
type Attribution struct {
	Trace   int64            `json:"trace"`
	RootNS  int64            `json:"root_ns"`
	Buckets map[string]int64 `json:"buckets,omitempty"`
	OtherNS int64            `json:"other_ns"`
}

// BucketOf maps a span to its attribution bucket, "" if unbucketed.
func BucketOf(sp Span) string {
	switch {
	case sp.Op == "lock_wait":
		return "lock_wait"
	case sp.Op == "wal_fsync":
		return "wal_fsync"
	case sp.Op == "phase1":
		return "phase1"
	case sp.Op == "phase2":
		return "phase2"
	case strings.HasPrefix(sp.Op, "rpc:"):
		return "rpc"
	case strings.HasPrefix(sp.Op, "daemon:"):
		return "daemon"
	}
	return ""
}

// Attribution computes the bucket breakdown for one trace from its
// recorded spans. Only the root (commit) span's subtree is attributed;
// spans under overlapping parallel fan-out can make a bucket sum exceed
// its parent's wall time (documented in DESIGN.md §8) — per-span self
// time is clamped at zero but not otherwise deduplicated.
func (t *Tracer) Attribution(trace int64) Attribution {
	spans := t.SpansByTrace(trace)
	a := Attribution{Trace: trace, Buckets: make(map[string]int64)}
	children := make(map[int64][]Span)
	var root *Span
	for i := range spans {
		sp := &spans[i]
		if sp.Root && root == nil {
			root = sp
		}
		children[sp.Parent] = append(children[sp.Parent], *sp)
	}
	if root == nil {
		return a
	}
	a.RootNS = root.DurNS
	// visit returns the total duration of the topmost bucketed spans in
	// id's subtree (the time "covered" at id's level), crediting each
	// bucketed span's self time to its bucket along the way.
	var visit func(id int64) int64
	visit = func(id int64) int64 {
		var covered int64
		for _, c := range children[id] {
			if b := BucketOf(c); b != "" {
				inner := visit(c.ID)
				self := c.DurNS - inner
				if self < 0 {
					self = 0
				}
				a.Buckets[b] += self
				covered += c.DurNS
			} else {
				covered += visit(c.ID)
			}
		}
		return covered
	}
	covered := visit(root.ID)
	if a.OtherNS = a.RootNS - covered; a.OtherNS < 0 {
		a.OtherNS = 0
	}
	return a
}

// --- Process-wide defaults --------------------------------------------------

// defaultTracerConfig lets command-line flags (dlfmd -trace-sample,
// -slow-txn-threshold, …) reach tracers built deep inside a deployment,
// without threading a config through every constructor.
var defaultTracerConfig atomic.Value // TracerConfig

// SetDefaultTracerConfig installs the config NewTracerDefault uses.
func SetDefaultTracerConfig(cfg TracerConfig) { defaultTracerConfig.Store(cfg) }

// DefaultTracerConfig returns the installed config (zero if none).
func DefaultTracerConfig() TracerConfig {
	if v := defaultTracerConfig.Load(); v != nil {
		return v.(TracerConfig)
	}
	return TracerConfig{}
}

// NewTracerDefault returns a tracer built from the process-wide config.
func NewTracerDefault() *Tracer { return NewTracerCfg(DefaultTracerConfig()) }
