package lock

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors returned by Acquire. The engine maps these onto its SQLCODE-style
// errors; DLFM's retry logic keys off them.
var (
	// ErrDeadlock is returned to the transaction whose lock request closed
	// a waits-for cycle (the requester is the victim, as in DB2's local
	// deadlock detector resolving in favour of older work).
	ErrDeadlock = errors.New("lock: deadlock detected")
	// ErrTimeout is returned when a lock wait exceeds the configured
	// timeout. The paper relies on a 60 s timeout to break distributed
	// deadlocks that no local detector can see (Section 4).
	ErrTimeout = errors.New("lock: lock wait timeout")
)

// Granularity distinguishes the three levels of the lock hierarchy.
type Granularity int

// Lock granularities.
const (
	GranTable Granularity = iota
	GranRow
	GranKey // an index key, used for next-key locking
)

func (g Granularity) String() string {
	switch g {
	case GranTable:
		return "table"
	case GranRow:
		return "row"
	case GranKey:
		return "key"
	default:
		return "?"
	}
}

// Target names a lockable object. Table locks leave RID and Key zero; row
// locks set RID; key locks set Key to "<index>/<encoded key>".
type Target struct {
	Table string
	Gran  Granularity
	RID   int64
	Key   string
}

// String renders the target for diagnostics.
func (t Target) String() string {
	switch t.Gran {
	case GranTable:
		return t.Table
	case GranRow:
		return fmt.Sprintf("%s/rid=%d", t.Table, t.RID)
	default:
		return fmt.Sprintf("%s/key=%s", t.Table, t.Key)
	}
}

// TableTarget returns the table-granularity target for table.
func TableTarget(table string) Target { return Target{Table: table, Gran: GranTable} }

// RowTarget returns the row-granularity target for (table, rid).
func RowTarget(table string, rid int64) Target {
	return Target{Table: table, Gran: GranRow, RID: rid}
}

// KeyTarget returns the key-granularity target for an index key.
func KeyTarget(table, index, key string) Target {
	return Target{Table: table, Gran: GranKey, Key: index + "/" + key}
}

// Config carries the tunables a DBA would set on the local database. Each
// knob corresponds to a lesson in Section 4 of the paper.
type Config struct {
	// Timeout bounds every lock wait. The paper settled on 60 seconds;
	// benchmarks sweep it (experiment E7). Zero means wait forever.
	Timeout time.Duration
	// EscalationThreshold is the number of row/key locks a transaction may
	// hold on one table before the manager escalates it to a table lock.
	// Zero disables escalation (experiment E4 sweeps batch sizes across
	// this threshold).
	EscalationThreshold int
	// LockListSize caps the total number of held locks across all
	// transactions; exceeding it forces escalation of the requesting
	// transaction regardless of EscalationThreshold ("lock list size
	// should be set sufficiently large to avoid forced lock escalation").
	// Zero means unlimited.
	LockListSize int
	// DetectDeadlocks enables the local waits-for cycle detector. When
	// false only the timeout breaks deadlocks.
	DetectDeadlocks bool
	// Shards partitions the lock table by table-name hash into this many
	// independently-locked shards, so sessions on different tables never
	// contend on one global mutex. Zero defaults to 16; 1 restores the
	// single-mutex manager. All of a table's table/row/key locks land in
	// the same shard, which keeps escalation shard-local.
	Shards int
	// Obs, when set, exposes the manager's counters and the lock-wait
	// histogram on the registry (lock_* metric names).
	Obs *obs.Registry
	// Tracer, when set, receives lock-wait spans and deadlock/timeout/
	// escalation marks, resolved from the local transaction id by BindTxn.
	Tracer *obs.Tracer
	// Flight, when set, records every deadlock/timeout victim with the
	// wait-for graph at that instant and the victim's span tree — the
	// post-mortem for the paper's next-key-deadlock and 60 s-timeout
	// incidents.
	Flight *obs.FlightRecorder
}

// defaultShards is the shard count when Config.Shards is zero.
const defaultShards = 16

// Stats counts lock-manager events; all counters are cumulative.
type Stats struct {
	Acquisitions    int64 // granted requests (including conversions)
	Waits           int64 // requests that had to block
	Deadlocks       int64 // requests aborted by the deadlock detector
	Timeouts        int64 // requests aborted by timeout
	Escalations     int64 // row->table escalations performed
	ShardContention int64 // shard-mutex acquisitions that found it busy
}

type waiter struct {
	txn     int64
	mode    Mode
	convert bool // conversion of an existing hold; jumps the queue
	granted chan struct{}
	// removed marks a waiter that timed out or was chosen as a deadlock
	// victim; grant passes over it.
	removed bool
}

type lockState struct {
	target  Target
	holders map[int64]Mode
	queue   []*waiter
}

type txnState struct {
	held map[Target]Mode
	// rowLocks counts row+key locks per table, driving escalation.
	rowLocks map[string]int
	// escalated records tables this transaction holds an escalated table
	// lock on; row requests there become no-ops.
	escalated map[string]bool
}

// shard is one partition of the lock table. locks holds every target whose
// table hashes here; txns holds the per-transaction state for those same
// tables (a transaction touching k distinct shards has k txnState slices).
type shard struct {
	mu    sync.Mutex
	locks map[Target]*lockState
	txns  map[int64]*txnState
}

// Manager is the lock manager. All public methods are safe for concurrent
// use. State is partitioned into shards by table-name hash; a single
// request only ever locks its own shard, except the deadlock detector,
// which briefly locks every shard (in index order, so concurrent detectors
// serialize instead of deadlocking) to take a consistent global waits-for
// snapshot.
type Manager struct {
	shards []*shard
	cfg    Config

	// timeout is the lock-wait bound in nanoseconds (atomic so SetTimeout
	// does not need any shard mutex).
	timeout atomic.Int64
	// held is the global held-lock count backing LockListSize and the
	// lock_held gauge.
	held atomic.Int64

	acquisitions obs.Counter
	waits        obs.Counter
	deadlocks    obs.Counter
	timeouts     obs.Counter
	escalations  obs.Counter
	// contention counts shard-mutex acquisitions that found the mutex
	// already held (lock_shard_contention) — the signal the shard count
	// is too low for the workload.
	contention obs.Counter

	// waitHist records how long blocked requests waited — the direct
	// measurement behind the paper's 60 s timeout tuning (experiment E7).
	waitHist *obs.Histogram
	tracer   *obs.Tracer
	flight   *obs.FlightRecorder
	// start anchors flight-entry timestamps.
	start time.Time
}

// NewManager returns a lock manager with the given configuration.
func NewManager(cfg Config) *Manager {
	n := cfg.Shards
	if n <= 0 {
		n = defaultShards
	}
	m := &Manager{
		shards:   make([]*shard, n),
		cfg:      cfg,
		waitHist: obs.NewHistogram(),
		tracer:   cfg.Tracer,
		flight:   cfg.Flight,
		start:    time.Now(),
	}
	for i := range m.shards {
		m.shards[i] = &shard{
			locks: make(map[Target]*lockState),
			txns:  make(map[int64]*txnState),
		}
	}
	m.timeout.Store(int64(cfg.Timeout))
	if cfg.Obs != nil {
		cfg.Obs.RegisterCounter("lock_acquisitions_total", &m.acquisitions)
		cfg.Obs.RegisterCounter("lock_waits_total", &m.waits)
		cfg.Obs.RegisterCounter("lock_deadlocks_total", &m.deadlocks)
		cfg.Obs.RegisterCounter("lock_timeouts_total", &m.timeouts)
		cfg.Obs.RegisterCounter("lock_escalations_total", &m.escalations)
		cfg.Obs.RegisterCounter("lock_shard_contention", &m.contention)
		cfg.Obs.RegisterHistogram("lock_wait_seconds", m.waitHist)
		cfg.Obs.GaugeFunc("lock_held", func() float64 {
			return float64(m.held.Load())
		})
		cfg.Obs.GaugeFunc("lock_txns", func() float64 {
			m.lockAll()
			defer m.unlockAll()
			return float64(len(m.txnSetLocked()))
		})
	}
	return m
}

// shardFor maps a target to its shard. Hashing only the table name keeps
// every lock of one table — and therefore the whole escalation dance — in
// a single shard.
func (m *Manager) shardFor(tg Target) *shard {
	if len(m.shards) == 1 {
		return m.shards[0]
	}
	h := fnv.New32a()
	h.Write([]byte(tg.Table)) //nolint:errcheck
	return m.shards[h.Sum32()%uint32(len(m.shards))]
}

// lockShard takes a shard mutex, counting the acquisitions that had to
// contend.
func (m *Manager) lockShard(sh *shard) {
	if sh.mu.TryLock() {
		return
	}
	m.contention.Add(1)
	sh.mu.Lock()
}

// lockAll/unlockAll bracket the stop-the-world sections (deadlock
// detection, Dump, the lock_txns gauge). Always in index order so two
// concurrent detectors serialize on shard 0 instead of deadlocking on each
// other.
func (m *Manager) lockAll() {
	for _, sh := range m.shards {
		m.lockShard(sh)
	}
}

func (m *Manager) unlockAll() {
	for _, sh := range m.shards {
		sh.mu.Unlock()
	}
}

// txnSetLocked returns the set of live transaction ids. Caller holds all
// shard mutexes.
func (m *Manager) txnSetLocked() map[int64]struct{} {
	set := make(map[int64]struct{})
	for _, sh := range m.shards {
		for id := range sh.txns {
			set[id] = struct{}{}
		}
	}
	return set
}

// HeldTotal reports the current number of held locks across all
// transactions — the quantity LockListSize caps. Admission control reads it
// to shed load before forced escalation kicks in.
func (m *Manager) HeldTotal() int { return int(m.held.Load()) }

// LockListLimit reports the configured LockListSize cap (0 = unlimited).
func (m *Manager) LockListLimit() int { return m.cfg.LockListSize }

// SetTimeout changes the lock-wait timeout for subsequent requests.
func (m *Manager) SetTimeout(d time.Duration) {
	m.timeout.Store(int64(d))
}

// Stats returns a snapshot of the cumulative counters.
func (m *Manager) Stats() Stats {
	return Stats{
		Acquisitions:    m.acquisitions.Load(),
		Waits:           m.waits.Load(),
		Deadlocks:       m.deadlocks.Load(),
		Timeouts:        m.timeouts.Load(),
		Escalations:     m.escalations.Load(),
		ShardContention: m.contention.Load(),
	}
}

// txn returns (creating if needed) txn's state slice in sh. Caller holds
// sh.mu.
func (sh *shard) txn(id int64) *txnState {
	ts := sh.txns[id]
	if ts == nil {
		ts = &txnState{
			held:      make(map[Target]Mode),
			rowLocks:  make(map[string]int),
			escalated: make(map[string]bool),
		}
		sh.txns[id] = ts
	}
	return ts
}

// state returns (creating if needed) the lock state for tg in sh. Caller
// holds sh.mu.
func (sh *shard) state(tg Target) *lockState {
	ls := sh.locks[tg]
	if ls == nil {
		ls = &lockState{target: tg, holders: make(map[int64]Mode)}
		sh.locks[tg] = ls
	}
	return ls
}

// Acquire obtains (or converts to) mode on target for txn, blocking until
// granted, deadlock, or timeout. Re-requesting a covered mode is a no-op.
func (m *Manager) Acquire(txn int64, tg Target, mode Mode) error {
	sh := m.shardFor(tg)
	m.lockShard(sh)

	ts := sh.txn(txn)

	// Escalated table lock subsumes row/key requests on that table.
	if tg.Gran != GranTable && ts.escalated[tg.Table] {
		sh.mu.Unlock()
		return nil
	}

	held := ts.held[tg]
	want := Join(held, mode)
	if want == held && held != None {
		sh.mu.Unlock()
		return nil
	}

	// Escalation check before taking yet another fine-grained lock.
	if tg.Gran != GranTable {
		forced := m.cfg.LockListSize > 0 && int(m.held.Load()) >= m.cfg.LockListSize
		if (m.cfg.EscalationThreshold > 0 && ts.rowLocks[tg.Table] >= m.cfg.EscalationThreshold) || forced {
			return m.escalateLocked(sh, txn, ts, tg.Table, mode)
		}
	}

	err := m.acquireLocked(sh, txn, ts, tg, want, held)
	return err
}

// acquireLocked performs the grant/wait protocol. Called with sh.mu held;
// returns with it released.
func (m *Manager) acquireLocked(sh *shard, txn int64, ts *txnState, tg Target, want, held Mode) error {
	ls := sh.state(tg)

	if grantableLocked(ls, txn, want, held != None) {
		m.grantLocked(ls, ts, txn, tg, want, held)
		sh.mu.Unlock()
		return nil
	}

	// Must wait.
	w := &waiter{txn: txn, mode: want, convert: held != None, granted: make(chan struct{}, 1)}
	if w.convert {
		// Conversions go to the front, after any earlier conversions.
		i := 0
		for i < len(ls.queue) && ls.queue[i].convert {
			i++
		}
		ls.queue = append(ls.queue, nil)
		copy(ls.queue[i+1:], ls.queue[i:])
		ls.queue[i] = w
	} else {
		ls.queue = append(ls.queue, w)
	}
	m.waits.Add(1)
	sh.mu.Unlock()

	// The wait span attributes blocked time to the transaction's trace
	// (lock_wait bucket). CtxOf resolves the engine-local txn id to the
	// trace the host bound at begin; unbound/unsampled txns get a nil
	// handle and record nothing.
	span := m.tracer.StartSpan(m.tracer.CtxOf(txn), "lock", "lock_wait").
		Attr("target", tg.String()).Attr("mode", want.String())

	// The cycle may span shards (txn A waits in shard 1 for B, B waits in
	// shard 2 for A), so detection needs a consistent global snapshot:
	// every shard mutex, taken in index order. If a grant raced the window
	// between enqueue and snapshot, the waiter is out of its queue and
	// contributes no edges, so the DFS finds nothing and we fall through
	// to the (already signalled) wait.
	if m.cfg.DetectDeadlocks {
		if cycle, edges, found := m.detectDeadlock(sh, ls, w); found {
			m.deadlocks.Add(1)
			m.tracer.Emitf(txn, "lock", "lock_deadlock", "%s on %s", want, tg)
			span.Attr("outcome", "deadlock").End()
			m.recordVictim("deadlock", txn, tg, cycle, edges)
			return fmt.Errorf("%w (txn %d requesting %s on %s)", ErrDeadlock, txn, want, tg)
		}
	}

	timeout := time.Duration(m.timeout.Load())

	waitStart := time.Now()
	var timer *time.Timer
	var timeoutC <-chan time.Time
	if timeout > 0 {
		timer = time.NewTimer(timeout)
		defer timer.Stop()
		timeoutC = timer.C
	}

	select {
	case <-w.granted:
		m.waitHist.Observe(time.Since(waitStart))
		span.Attr("outcome", "grant").End()
		return nil
	case <-timeoutC:
		m.lockShard(sh)
		// A grant may have raced the timer.
		select {
		case <-w.granted:
			sh.mu.Unlock()
			m.waitHist.Observe(time.Since(waitStart))
			span.Attr("outcome", "grant").End()
			return nil
		default:
		}
		// Record who starved the victim before removing it from the queue
		// — afterwards it contributes no edges to the global graph. Holding
		// only this shard's mutex is enough: the victim's direct blockers
		// all sit on this lock.
		var blockers []int64
		if m.flight != nil {
			for h, hm := range ls.holders {
				if h != txn && !Compatible(hm, w.mode) {
					blockers = append(blockers, h)
				}
			}
			for _, ahead := range ls.queue {
				if ahead == w {
					break
				}
				if !ahead.removed && ahead.txn != txn && !Compatible(ahead.mode, w.mode) {
					blockers = append(blockers, ahead.txn)
				}
			}
		}
		m.removeWaiterLocked(sh, ls, w)
		m.timeouts.Add(1)
		sh.mu.Unlock()
		m.waitHist.Observe(time.Since(waitStart))
		m.tracer.Emitf(txn, "lock", "lock_timeout", "%s on %s after %v", want, tg, timeout)
		span.Attr("outcome", "timeout").End()
		if m.flight != nil {
			// Best-effort capture of the rest of the graph; the victim's own
			// edge is re-added from the pre-removal snapshot above.
			m.lockAll()
			cycle, edges := m.cyclePathLocked(txn)
			m.unlockAll()
			if len(blockers) > 0 {
				if edges == nil {
					edges = make(map[int64][]int64, 1)
				}
				edges[txn] = append(edges[txn], blockers...)
			}
			m.recordVictim("timeout", txn, tg, cycle, edges)
		}
		return fmt.Errorf("%w (txn %d requesting %s on %s after %v)", ErrTimeout, txn, want, tg, timeout)
	}
}

// recordVictim files a flight-recorder entry for a deadlock or timeout
// victim, attaching the victim's span tree when its trace is sampled.
func (m *Manager) recordVictim(kind string, txn int64, tg Target, cycle []int64, edges map[int64][]int64) {
	if m.flight == nil {
		return
	}
	e := obs.FlightEntry{
		Kind:     kind,
		Victim:   txn,
		Target:   tg.String(),
		Cycle:    cycle,
		WaitsFor: edges,
		AtNS:     int64(time.Since(m.start)),
	}
	if ctx := m.tracer.CtxOf(txn); ctx.Valid() {
		e.Trace = ctx.Trace
		e.Spans = m.tracer.SpansByTrace(ctx.Trace)
	}
	m.flight.Record(e)
}

// detectDeadlock takes the global snapshot and, if w's request closed a
// waits-for cycle, removes w as the victim, returning the cycle and the
// whole waits-for graph for the flight recorder. Called with no shard
// mutex held; the all-shard lock serializes concurrent detectors, so the
// first one breaks the cycle and the second finds it already broken.
func (m *Manager) detectDeadlock(sh *shard, ls *lockState, w *waiter) (cycle []int64, edges map[int64][]int64, found bool) {
	m.lockAll()
	defer m.unlockAll()
	if w.removed {
		return nil, nil, false
	}
	cycle, edges = m.cyclePathLocked(w.txn)
	if cycle == nil {
		return nil, nil, false
	}
	m.removeWaiterLocked(sh, ls, w)
	return cycle, edges, true
}

// grantableLocked reports whether txn may hold mode on ls right now.
// Conversions only check the holders; fresh requests also respect FIFO
// fairness (no grant while earlier waiters queue, unless fully compatible
// with them too).
func grantableLocked(ls *lockState, txn int64, mode Mode, convert bool) bool {
	for h, hm := range ls.holders {
		if h == txn {
			continue
		}
		if !Compatible(hm, mode) {
			return false
		}
	}
	if convert {
		return true
	}
	for _, w := range ls.queue {
		if w.removed || w.txn == txn {
			continue
		}
		if !Compatible(w.mode, mode) {
			return false
		}
	}
	return true
}

func (m *Manager) grantLocked(ls *lockState, ts *txnState, txn int64, tg Target, want, held Mode) {
	ls.holders[txn] = want
	ts.held[tg] = want
	if held == None {
		m.held.Add(1)
		if tg.Gran != GranTable {
			ts.rowLocks[tg.Table]++
		}
	}
	m.acquisitions.Add(1)
}

func (m *Manager) removeWaiterLocked(sh *shard, ls *lockState, w *waiter) {
	w.removed = true
	for i, q := range ls.queue {
		if q == w {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			break
		}
	}
	// Our departure may unblock FIFO successors.
	m.sweepQueueLocked(sh, ls)
}

// sweepQueueLocked grants queued waiters, conversions first, then FIFO,
// stopping at the first non-grantable fresh request.
func (m *Manager) sweepQueueLocked(sh *shard, ls *lockState) {
	for i := 0; i < len(ls.queue); {
		w := ls.queue[i]
		if w.removed {
			ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
			continue
		}
		ok := true
		for h, hm := range ls.holders {
			if h == w.txn {
				continue
			}
			if !Compatible(hm, w.mode) {
				ok = false
				break
			}
		}
		if !ok {
			// Fair FIFO: a blocked waiter blocks everyone behind it.
			return
		}
		// Grant.
		ls.queue = append(ls.queue[:i], ls.queue[i+1:]...)
		ts := sh.txn(w.txn)
		tg := ls.target
		held := ts.held[tg]
		m.grantLocked(ls, ts, w.txn, tg, w.mode, held)
		w.granted <- struct{}{}
	}
}

// escalateLocked converts txn's row/key locks on table into a single table
// lock. Because targets shard by table name, everything it touches lives
// in sh. Called with sh.mu held; returns with it released.
func (m *Manager) escalateLocked(sh *shard, txn int64, ts *txnState, table string, reqMode Mode) error {
	// Table mode: X if the transaction writes (holds or wants X/IX),
	// otherwise S.
	tmode := S
	if reqMode == X || reqMode == IX {
		tmode = X
	} else {
		for tg, hm := range ts.held {
			if tg.Table == table && (hm == X || hm == IX || hm == SIX) {
				tmode = X
				break
			}
		}
	}
	tgt := TableTarget(table)
	held := ts.held[tgt]
	want := Join(held, tmode)
	m.escalations.Add(1)
	m.tracer.Emitf(txn, "lock", "lock_escalation", "%s to %s (%d row locks)", table, want, ts.rowLocks[table])

	if err := m.acquireLocked(sh, txn, ts, tgt, want, held); err != nil {
		return err
	}

	// Drop the fine-grained locks now covered by the table lock.
	m.lockShard(sh)
	ts = sh.txns[txn]
	if ts != nil {
		ts.escalated[table] = true
		for tg := range ts.held {
			if tg.Table == table && tg.Gran != GranTable {
				m.releaseOneLocked(sh, txn, ts, tg)
			}
		}
	}
	sh.mu.Unlock()
	return nil
}

func (m *Manager) releaseOneLocked(sh *shard, txn int64, ts *txnState, tg Target) {
	ls := sh.locks[tg]
	if ls == nil {
		return
	}
	if _, ok := ls.holders[txn]; !ok {
		return
	}
	delete(ls.holders, txn)
	delete(ts.held, tg)
	m.held.Add(-1)
	if tg.Gran != GranTable {
		ts.rowLocks[tg.Table]--
	}
	m.sweepQueueLocked(sh, ls)
	if len(ls.holders) == 0 && len(ls.queue) == 0 {
		delete(sh.locks, tg)
	}
}

// Release drops txn's lock on target, if held. Used for instant-duration
// next-key locks on insert.
func (m *Manager) Release(txn int64, tg Target) {
	sh := m.shardFor(tg)
	m.lockShard(sh)
	defer sh.mu.Unlock()
	ts := sh.txns[txn]
	if ts == nil {
		return
	}
	m.releaseOneLocked(sh, txn, ts, tg)
}

// ReleaseAll drops every lock txn holds (commit/rollback).
func (m *Manager) ReleaseAll(txn int64) {
	for _, sh := range m.shards {
		m.lockShard(sh)
		if ts := sh.txns[txn]; ts != nil {
			for tg := range ts.held {
				m.releaseOneLocked(sh, txn, ts, tg)
			}
			delete(sh.txns, txn)
		}
		sh.mu.Unlock()
	}
}

// HeldCount returns the number of locks txn currently holds (diagnostics
// and tests).
func (m *Manager) HeldCount(txn int64) int {
	n := 0
	for _, sh := range m.shards {
		m.lockShard(sh)
		if ts := sh.txns[txn]; ts != nil {
			n += len(ts.held)
		}
		sh.mu.Unlock()
	}
	return n
}

// Holds reports the mode txn holds on target (None if not held).
func (m *Manager) Holds(txn int64, tg Target) Mode {
	sh := m.shardFor(tg)
	m.lockShard(sh)
	defer sh.mu.Unlock()
	ts := sh.txns[txn]
	if ts == nil {
		return None
	}
	return ts.held[tg]
}

// WaitHistogram exposes the lock-wait latency histogram (always present,
// even when no registry was configured).
func (m *Manager) WaitHistogram() *obs.Histogram { return m.waitHist }

// DumpWaiter is one queued request in a Dump.
type DumpWaiter struct {
	Txn     int64  `json:"txn"`
	Mode    string `json:"mode"`
	Convert bool   `json:"convert,omitempty"`
}

// DumpLock is one lock's live state in a Dump.
type DumpLock struct {
	Target  string           `json:"target"`
	Holders map[int64]string `json:"holders"`
	Queue   []DumpWaiter     `json:"queue,omitempty"`
}

// Dump is a point-in-time snapshot of the lock table for /debug/locks:
// every held lock, every queued request, and the waits-for edges the
// deadlock detector would walk.
type Dump struct {
	Locks     []DumpLock        `json:"locks"`
	WaitsFor  map[int64][]int64 `json:"waits_for,omitempty"`
	HeldTotal int64             `json:"held_total"`
	Txns      int               `json:"txns"`
}

// Dump captures the live lock table. Diagnostics only: it holds every
// shard mutex while copying, so scrape it, don't poll it hot.
func (m *Manager) Dump() Dump {
	m.lockAll()
	defer m.unlockAll()
	d := Dump{HeldTotal: m.held.Load(), Txns: len(m.txnSetLocked())}
	for _, sh := range m.shards {
		for _, ls := range sh.locks {
			dl := DumpLock{Target: ls.target.String(), Holders: make(map[int64]string, len(ls.holders))}
			for txn, mode := range ls.holders {
				dl.Holders[txn] = mode.String()
			}
			for _, w := range ls.queue {
				if w.removed {
					continue
				}
				dl.Queue = append(dl.Queue, DumpWaiter{Txn: w.txn, Mode: w.mode.String(), Convert: w.convert})
			}
			d.Locks = append(d.Locks, dl)
		}
	}
	sort.Slice(d.Locks, func(i, j int) bool { return d.Locks[i].Target < d.Locks[j].Target })

	edges := m.edgesLocked()
	if len(edges) > 0 {
		d.WaitsFor = make(map[int64][]int64, len(edges))
		for from, tos := range edges {
			seen := make(map[int64]bool)
			for _, to := range tos {
				if !seen[to] {
					seen[to] = true
					d.WaitsFor[from] = append(d.WaitsFor[from], to)
				}
			}
			sort.Slice(d.WaitsFor[from], func(i, j int) bool { return d.WaitsFor[from][i] < d.WaitsFor[from][j] })
		}
	}
	return d
}

// edgesLocked builds the global waits-for graph: each waiter waits for
// every conflicting holder of its lock and for every conflicting waiter
// queued ahead of it. Caller holds all shard mutexes.
func (m *Manager) edgesLocked() map[int64][]int64 {
	edges := make(map[int64][]int64)
	for _, sh := range m.shards {
		for _, ls := range sh.locks {
			for qi, w := range ls.queue {
				if w.removed {
					continue
				}
				for h, hm := range ls.holders {
					if h != w.txn && !Compatible(hm, w.mode) {
						edges[w.txn] = append(edges[w.txn], h)
					}
				}
				for _, ahead := range ls.queue[:qi] {
					if !ahead.removed && ahead.txn != w.txn && !Compatible(ahead.mode, w.mode) {
						edges[w.txn] = append(edges[w.txn], ahead.txn)
					}
				}
			}
		}
	}
	return edges
}

// cyclePathLocked looks for a waits-for cycle through start, returning
// the cycle as the transaction path [start, …, last] (where last waits
// for start again) plus the whole waits-for graph; cycle is nil when none
// exists. Caller holds all shard mutexes (the snapshot must be globally
// consistent — cycles routinely span shards).
func (m *Manager) cyclePathLocked(start int64) ([]int64, map[int64][]int64) {
	edges := m.edgesLocked()
	// DFS from start looking for a cycle back to start, tracking the path.
	seen := make(map[int64]bool)
	path := []int64{start}
	var dfs func(n int64) bool
	dfs = func(n int64) bool {
		for _, next := range edges[n] {
			if next == start {
				return true
			}
			if !seen[next] {
				seen[next] = true
				path = append(path, next)
				if dfs(next) {
					return true
				}
				path = path[:len(path)-1]
			}
		}
		return false
	}
	if !dfs(start) {
		return nil, edges
	}
	return path, edges
}
