package obs

import (
	"fmt"
	"time"
)

// Tracer records one transaction's spans and marks into a bounded ring,
// overwriting the oldest when full. All methods are safe for concurrent
// use and safe on a nil receiver, so components can be instrumented
// unconditionally.
//
// Named returns a derived handle over the same store whose component names
// are prefixed (a stack with several DLFMs gives each a Named view so one
// transaction's records interleave on a single chronological timeline).
type Tracer struct {
	s      *spanStore
	binds  *txnBinds // per-engine txn-id bindings; see BindTxn
	prefix string
}

// Named returns a tracer sharing this store that prefixes every component
// name with name + "/". The span store (ring, slow log, sampling) is
// shared; the txn-bind table is fresh, because a named tracer belongs to a
// different engine whose local txn ids collide with everyone else's.
func (t *Tracer) Named(name string) *Tracer {
	if t == nil {
		return nil
	}
	return &Tracer{s: t.s, prefix: t.prefix + name + "/", binds: &txnBinds{m: make(map[int64]SpanCtx)}}
}

// Emit records a mark: a zero-duration span for a fact no interval carries
// (a no vote, a phase-2 give-up, a deadlock victim, a failover). txn is
// whichever id the caller has: an engine-local id bound with BindTxn
// resolves to its trace and current span, as lock-wait spans do; any other
// id is the trace id itself. Marks follow their trace's sampling decision;
// txn 0 marks are process events and are always kept. Nil-safe.
func (t *Tracer) Emit(txn int64, comp, kind, detail string) {
	if t == nil {
		return
	}
	ctx := t.CtxOf(txn)
	if !ctx.Valid() {
		ctx.Trace = txn
	}
	if ctx.Trace != 0 && !t.Sampled(ctx.Trace) {
		return
	}
	m := Span{Trace: ctx.Trace, Parent: ctx.Span, Comp: t.prefix + comp, Op: kind, Mark: true}
	if detail != "" {
		m.Attrs = []Attr{{K: "detail", V: detail}}
	}
	s := t.s
	m.StartNS = int64(time.Since(s.start))
	s.mu.Lock()
	s.nextID++
	m.ID = s.nextID
	s.pushLocked(m)
	s.mu.Unlock()
}

// Emitf records one mark with a formatted detail. Use only off the hot
// path: the formatting allocates.
func (t *Tracer) Emitf(txn int64, comp, kind, format string, args ...any) {
	if t == nil {
		return
	}
	t.Emit(txn, comp, kind, fmt.Sprintf(format, args...))
}

// ByTxn returns one trace's marks, chronological; ByTxn(0) is the process
// events. Nil-safe.
func (t *Tracer) ByTxn(txn int64) []Span {
	var out []Span
	for _, sp := range t.SpansByTrace(txn) {
		if sp.Mark {
			out = append(out, sp)
		}
	}
	return out
}
