// Package fault is a registry of named, deterministic fault-injection
// points. Production code declares a point once (`var fp = fault.P("name")`)
// and fires it at the instrumented site; when the point is not armed the
// fire is a single atomic load. Tests and the chaos runner arm points with
// actions — error return, connection drop, panic-as-crash, latency — and
// selectors (seeded probability, skip counts, fire limits, detail matching)
// so every chaos run is replayable from its seed.
//
// The failure windows the points model are the ones Gray & Lamport's
// Consensus on Transaction Commit enumerates for two-phase commit:
// participant crash after hardening its vote, coordinator crash between
// phases, and messages lost on the wire.
package fault

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// ErrInjected is the default error returned by an armed point whose Action
// specifies no other behaviour.
var ErrInjected = errors.New("fault: injected error")

// ErrDrop is returned by a point armed with Drop. Transport layers treat it
// as an instruction to sever the connection mid-call.
var ErrDrop = errors.New("fault: connection drop")

// CrashPanic is the panic value of a point armed with Crash. The RPC server
// loop recovers it and severs the connection, modelling the death of the
// serving process; any other panic value propagates.
type CrashPanic struct{ Point string }

func (c CrashPanic) String() string { return "fault: injected crash at " + c.Point }

// AsCrash reports whether a recovered panic value is an injected crash.
func AsCrash(v any) (CrashPanic, bool) {
	c, ok := v.(CrashPanic)
	return c, ok
}

// Action is what an armed point does when it fires. Delay composes with the
// other behaviours (sleep first, then fail); a zero Action fires ErrInjected.
type Action struct {
	Err   error         // error to return (wrapped with the point name)
	Drop  bool          // return ErrDrop: sever the connection
	Crash bool          // panic with CrashPanic: the serving process dies
	Delay time.Duration // sleep before returning
}

// arming is one Arm call's state, swapped atomically into the point.
type arming struct {
	act   Action
	prob  float64 // fire probability; 0 or >=1 means always
	after int64   // skip the first N matching hits
	times int64   // fire at most N times; 0 means unlimited
	match string  // only hits whose detail contains this substring

	mu    sync.Mutex
	seen  int64
	fired int64
}

// Option refines when an armed point fires.
type Option func(*arming)

// Prob fires with probability p. Whether a hit fires is a pure function of
// the registry seed, the point's name and the hit's number within the
// arming, so a point's firing pattern depends only on its own hits, never
// on what other points or goroutines draw.
func Prob(p float64) Option { return func(a *arming) { a.prob = p } }

// After skips the first n matching hits before firing.
func After(n int) Option { return func(a *arming) { a.after = int64(n) } }

// Times fires at most n times, then the point goes quiet (but stays armed).
func Times(n int) Option { return func(a *arming) { a.times = int64(n) } }

// Match restricts firing to hits whose detail contains substr — e.g. arm
// "rpc.recv.before" for Commit requests only.
func Match(substr string) Option { return func(a *arming) { a.match = substr } }

// Point is one named fault site. Obtain it with P (or Registry.Point) and
// keep the handle; Fire on a disarmed point costs one atomic load.
type Point struct {
	name  string
	hash  uint64 // of name, for Prob's draws
	reg   *Registry
	armed atomic.Pointer[arming]
	fired atomic.Int64
}

// Name returns the point's registered name.
func (p *Point) Name() string { return p.name }

// Fired returns how many times the point has fired since the last Reset.
func (p *Point) Fired() int64 { return p.fired.Load() }

// Fire executes the armed action, if any. It returns nil when the point is
// disarmed or the arming's selectors reject this hit.
func (p *Point) Fire() error { return p.FireDetail("") }

// FireDetail is Fire with a detail string the arming can Match against
// (typically the RPC request name or the work item).
func (p *Point) FireDetail(detail string) error {
	a := p.armed.Load()
	if a == nil {
		return nil
	}
	return p.fire(a, detail)
}

func (p *Point) fire(a *arming, detail string) error {
	a.mu.Lock()
	if a.match != "" && !strings.Contains(detail, a.match) {
		a.mu.Unlock()
		return nil
	}
	a.seen++
	if a.seen <= a.after {
		a.mu.Unlock()
		return nil
	}
	if a.times > 0 && a.fired >= a.times {
		a.mu.Unlock()
		return nil
	}
	if a.prob > 0 && a.prob < 1 && p.draw(a.seen) >= a.prob {
		a.mu.Unlock()
		return nil
	}
	a.fired++
	act := a.act
	a.mu.Unlock()

	p.fired.Add(1)
	p.reg.injected.Add(1)
	if act.Delay > 0 {
		time.Sleep(act.Delay)
	}
	switch {
	case act.Crash:
		panic(CrashPanic{Point: p.name})
	case act.Drop:
		return fmt.Errorf("fault %s: %w", p.name, ErrDrop)
	case act.Err != nil:
		return fmt.Errorf("fault %s: %w", p.name, act.Err)
	case act.Delay > 0:
		return nil // pure latency
	default:
		return fmt.Errorf("fault %s: %w", p.name, ErrInjected)
	}
}

// draw maps (registry seed, point name, hit number) to a uniform number in
// [0, 1) with SplitMix64.
func (p *Point) draw(hit int64) float64 {
	x := splitmix64(splitmix64(uint64(p.reg.seed.Load())^p.hash) + uint64(hit))
	return float64(x>>11) / (1 << 53)
}

func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Registry holds the process's fault points and the seed behind
// probabilistic arming. Arming is expected from test/chaos setup code;
// firing is safe from any goroutine.
type Registry struct {
	mu       sync.Mutex
	seed     atomic.Int64
	points   map[string]*Point
	injected atomic.Int64
}

// New creates an empty registry seeded with 1.
func New() *Registry {
	r := &Registry{points: make(map[string]*Point)}
	r.seed.Store(1)
	return r
}

var defaultRegistry = New()

// Default returns the process-wide registry every instrumented package
// fires into.
func Default() *Registry { return defaultRegistry }

// P returns (creating if needed) the named point of the default registry.
// Instrumented sites call it once at package init and keep the handle.
func P(name string) *Point { return defaultRegistry.Point(name) }

// Point returns (creating if needed) the named point.
func (r *Registry) Point(name string) *Point {
	r.mu.Lock()
	defer r.mu.Unlock()
	p := r.points[name]
	if p == nil {
		h := fnv.New64a()
		h.Write([]byte(name))
		p = &Point{name: name, hash: h.Sum64(), reg: r}
		r.points[name] = p
	}
	return p
}

// Seed sets the seed behind Prob so a chaos run replays exactly.
func (r *Registry) Seed(seed int64) { r.seed.Store(seed) }

// Arm installs an action at the named point, replacing any previous arming
// (its hit/fire selectors restart from zero).
func (r *Registry) Arm(name string, act Action, opts ...Option) *Point {
	p := r.Point(name)
	a := &arming{act: act}
	for _, opt := range opts {
		opt(a)
	}
	p.armed.Store(a)
	return p
}

// Disarm removes the named point's action; Fire becomes a no-op again.
func (r *Registry) Disarm(name string) { r.Point(name).armed.Store(nil) }

// Reset disarms every point and zeroes all fire counters (the seed is left
// alone; re-arming a point restarts its hit numbers).
func (r *Registry) Reset() {
	r.mu.Lock()
	pts := make([]*Point, 0, len(r.points))
	for _, p := range r.points {
		pts = append(pts, p)
	}
	r.mu.Unlock()
	for _, p := range pts {
		p.armed.Store(nil)
		p.fired.Store(0)
	}
	r.injected.Store(0)
}

// Injected returns the total number of faults fired since the last Reset.
func (r *Registry) Injected() int64 { return r.injected.Load() }

// Fired returns how many times the named point has fired.
func (r *Registry) Fired(name string) int64 { return r.Point(name).Fired() }

// Armed lists the names of currently armed points, sorted.
func (r *Registry) Armed() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var names []string
	for name, p := range r.points {
		if p.armed.Load() != nil {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return names
}
