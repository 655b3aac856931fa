package fault

import (
	"errors"
	"reflect"
	"sync"
	"testing"
	"time"
)

// Tests share the default registry (the same one production code fires
// into), so each resets it on entry and exit and must not run in parallel.
func resetAround(t *testing.T) *Registry {
	t.Helper()
	r := Default()
	r.Reset()
	t.Cleanup(r.Reset)
	return r
}

func TestDisarmedFireIsNoop(t *testing.T) {
	r := resetAround(t)
	p := r.Point("test.noop")
	for i := 0; i < 100; i++ {
		if err := p.Fire(); err != nil {
			t.Fatalf("disarmed Fire returned %v", err)
		}
	}
	if p.Fired() != 0 || r.Injected() != 0 {
		t.Fatalf("disarmed point counted fires: %d/%d", p.Fired(), r.Injected())
	}
}

func TestArmErrorWrapsAndCounts(t *testing.T) {
	r := resetAround(t)
	sentinel := errors.New("boom")
	p := r.Arm("test.err", Action{Err: sentinel})
	err := p.Fire()
	if !errors.Is(err, sentinel) {
		t.Fatalf("want wrapped sentinel, got %v", err)
	}
	if p.Fired() != 1 || r.Injected() != 1 || r.Fired("test.err") != 1 {
		t.Fatalf("fire counters wrong: %d/%d/%d", p.Fired(), r.Injected(), r.Fired("test.err"))
	}
	r.Disarm("test.err")
	if err := p.Fire(); err != nil {
		t.Fatalf("disarmed point fired: %v", err)
	}
}

func TestZeroActionDefaultsToErrInjected(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.zero", Action{})
	if err := p.Fire(); !errors.Is(err, ErrInjected) {
		t.Fatalf("want ErrInjected, got %v", err)
	}
}

func TestDropIsTyped(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.drop", Action{Drop: true})
	if err := p.Fire(); !errors.Is(err, ErrDrop) {
		t.Fatalf("want ErrDrop, got %v", err)
	}
}

func TestTimesLimitsFires(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.times", Action{}, Times(2))
	fired := 0
	for i := 0; i < 10; i++ {
		if p.Fire() != nil {
			fired++
		}
	}
	if fired != 2 || p.Fired() != 2 {
		t.Fatalf("Times(2): fired %d times (counter %d)", fired, p.Fired())
	}
}

func TestAfterSkipsEarlyHits(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.after", Action{}, After(3))
	var outcomes []bool
	for i := 0; i < 5; i++ {
		outcomes = append(outcomes, p.Fire() != nil)
	}
	want := []bool{false, false, false, true, true}
	for i := range want {
		if outcomes[i] != want[i] {
			t.Fatalf("After(3) hit %d: fired=%v, want %v", i, outcomes[i], want[i])
		}
	}
}

func TestMatchFiltersByDetail(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.match", Action{}, Match("Commit"))
	if err := p.FireDetail("LinkFile"); err != nil {
		t.Fatalf("non-matching detail fired: %v", err)
	}
	if err := p.FireDetail("Commit"); err == nil {
		t.Fatal("matching detail did not fire")
	}
	// Non-matching hits must not consume the selectors' hit budget.
	p2 := r.Arm("test.match2", Action{}, Match("Commit"), Times(1))
	p2.FireDetail("Ping")
	if err := p2.FireDetail("Commit"); err == nil {
		t.Fatal("Times budget consumed by non-matching hit")
	}
}

func TestProbIsDeterministicFromSeed(t *testing.T) {
	r := resetAround(t)
	pattern := func() []bool {
		r.Seed(42)
		p := r.Arm("test.prob", Action{}, Prob(0.3))
		var out []bool
		for i := 0; i < 64; i++ {
			out = append(out, p.Fire() != nil)
		}
		return out
	}
	a, b := pattern(), pattern()
	fired := 0
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged at hit %d", i)
		}
		if a[i] {
			fired++
		}
	}
	if fired == 0 || fired == len(a) {
		t.Fatalf("Prob(0.3) fired %d/%d times", fired, len(a))
	}
}

// A point's Prob pattern depends only on its own hits: two points
// hammered at once from two goroutines fire on the same hit numbers as
// each does alone.
func TestProbPatternIsPerPoint(t *testing.T) {
	r := resetAround(t)
	r.Seed(7)
	const hits = 2000
	run := func(name string) []bool {
		p := r.Arm(name, Action{}, Prob(0.3))
		out := make([]bool, hits)
		for i := range out {
			out[i] = p.Fire() != nil
		}
		return out
	}
	aloneA, aloneB := run("test.prob.a"), run("test.prob.b")
	if reflect.DeepEqual(aloneA, aloneB) {
		t.Fatal("two points share one firing pattern")
	}
	var togetherA, togetherB []bool
	var wg sync.WaitGroup
	wg.Add(2)
	go func() { defer wg.Done(); togetherA = run("test.prob.a") }()
	go func() { defer wg.Done(); togetherB = run("test.prob.b") }()
	wg.Wait()
	if !reflect.DeepEqual(aloneA, togetherA) || !reflect.DeepEqual(aloneB, togetherB) {
		t.Fatal("a point's firing pattern changed when another point fired beside it")
	}
}

func TestCrashPanicsAndIsRecognizable(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.crash", Action{Crash: true})
	defer func() {
		c, ok := AsCrash(recover())
		if !ok {
			t.Fatal("panic value is not a CrashPanic")
		}
		if c.Point != "test.crash" {
			t.Fatalf("crash point = %q", c.Point)
		}
	}()
	p.Fire()
	t.Fatal("armed Crash did not panic")
}

func TestLatencyDelays(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.delay", Action{Delay: 20 * time.Millisecond})
	start := time.Now()
	if err := p.Fire(); err != nil {
		t.Fatalf("pure-latency action returned %v", err)
	}
	if d := time.Since(start); d < 15*time.Millisecond {
		t.Fatalf("latency action returned after %v", d)
	}
}

func TestResetDisarmsEverything(t *testing.T) {
	r := resetAround(t)
	p := r.Arm("test.reset", Action{})
	p.Fire()
	r.Reset()
	if err := p.Fire(); err != nil {
		t.Fatalf("point still armed after Reset: %v", err)
	}
	if p.Fired() != 0 || r.Injected() != 0 {
		t.Fatalf("counters survive Reset: %d/%d", p.Fired(), r.Injected())
	}
}

func TestArmedLists(t *testing.T) {
	r := resetAround(t)
	r.Arm("test.b", Action{})
	r.Arm("test.a", Action{})
	got := r.Armed()
	if len(got) != 2 || got[0] != "test.a" || got[1] != "test.b" {
		t.Fatalf("Armed() = %v", got)
	}
}

func TestBackoffCapsAndJitters(t *testing.T) {
	b := Backoff{Base: time.Millisecond, Cap: 8 * time.Millisecond}
	if d := (Backoff{}).Delay(5); d != 0 {
		t.Fatalf("zero Base must not sleep, got %v", d)
	}
	for attempt := 0; attempt < 20; attempt++ {
		d := b.Delay(attempt)
		if d <= 0 || d > b.Cap {
			t.Fatalf("attempt %d: delay %v outside (0, %v]", attempt, d, b.Cap)
		}
	}
	// Deep attempts land in the cap's jitter window [cap/2, cap].
	if d := b.Delay(30); d < b.Cap/2 || d > b.Cap {
		t.Fatalf("capped delay %v outside [%v, %v]", d, b.Cap/2, b.Cap)
	}
}
