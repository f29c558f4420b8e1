package engine

import (
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/faults"
)

// bypassAll is a stand-in classifier that bypasses everything, the
// opposite of the admit-all fallback — so tests can tell from the
// decision alone which path served a request.
type bypassAll struct{}

func (bypassAll) Name() string { return "classifier" }
func (bypassAll) Decide(uint64, int, []float64) core.Decision {
	return core.Decision{Admit: false, PredictedOneTime: true}
}

func newBreaker(t *testing.T, primary core.Filter, cfg BreakerConfig) *Breaker {
	t.Helper()
	b, err := NewBreaker(primary, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBreakerTripsDegradesAndHeals walks the full state machine on a
// fake clock: consecutive failures open the breaker, open traffic
// degrades to the fallback without touching the primary, cooldown
// admits probes, and a healthy probe closes the circuit again.
func TestBreakerTripsDegradesAndHeals(t *testing.T) {
	clk := faults.NewFakeClock()
	inj := faults.NewInjector(faults.FailN(5, faults.Fault{Kind: faults.Error}), clk)
	primary := faults.WrapFilter(bypassAll{}, inj)
	b := newBreaker(t, primary, BreakerConfig{
		FailureThreshold: 3,
		Cooldown:         time.Second,
		Now:              clk.Now,
	})

	if b.Name() != "faulty-classifier" {
		t.Fatalf("breaker must report the primary identity, got %q", b.Name())
	}

	// Three consecutive failures: each served degraded, then the trip.
	for i := 0; i < 3; i++ {
		d := b.Decide(uint64(i), i, nil)
		if !d.Degraded || !d.Admit {
			t.Fatalf("failure %d: decision %+v, want degraded admit-all", i, d)
		}
	}
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("state=%v opens=%d after threshold failures, want open/1", b.State(), b.Opens())
	}

	// Open: traffic degrades without consuming primary calls.
	callsBefore := inj.Calls()
	for i := 0; i < 10; i++ {
		if d := b.Decide(100, 100+i, nil); !d.Degraded {
			t.Fatalf("open breaker served an undegraded decision: %+v", d)
		}
	}
	if inj.Calls() != callsBefore {
		t.Fatal("open breaker must not touch the primary")
	}

	// Cooldown elapses: the injected fault schedule still has 2 failing
	// calls, so the first two probes re-open the breaker.
	for probe := 0; probe < 2; probe++ {
		clk.Advance(time.Second)
		if d := b.Decide(200, 200+probe, nil); !d.Degraded {
			t.Fatalf("failing probe %d must degrade, got %+v", probe, d)
		}
		if b.State() != BreakerOpen {
			t.Fatalf("failed probe %d must re-open, state=%v", probe, b.State())
		}
	}

	// The primary has recovered: one healthy probe closes the circuit.
	clk.Advance(time.Second)
	d := b.Decide(300, 300, nil)
	if d.Degraded || d.Admit {
		t.Fatalf("healthy probe must serve the primary decision, got %+v", d)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v after healthy probe, want closed", b.State())
	}
	if d := b.Decide(301, 301, nil); d.Degraded {
		t.Fatalf("closed breaker degraded a healthy call: %+v", d)
	}
	if b.Opens() != 3 || b.Failures() != 5 {
		t.Fatalf("opens=%d failures=%d, want 3/5", b.Opens(), b.Failures())
	}
	if b.LastError() == nil {
		t.Fatal("LastError must report the injected failure")
	}
}

// TestBreakerRecoversPanics pins that a panicking classifier never
// escapes Decide.
func TestBreakerRecoversPanics(t *testing.T) {
	inj := faults.NewInjector(faults.FailN(4, faults.Fault{Kind: faults.Panic}), nil)
	b := newBreaker(t, faults.WrapFilter(bypassAll{}, inj), BreakerConfig{FailureThreshold: 2})
	for i := 0; i < 4; i++ {
		d := b.Decide(uint64(i), i, nil) // must not panic
		if !d.Degraded {
			t.Fatalf("call %d: %+v, want degraded", i, d)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v, want open after panics", b.State())
	}
}

// TestBreakerLatencyBudget pins the third failure mode: a decision that
// overruns its budget (on the shared fake clock, so no real waiting) is
// discarded and the fallback serves the request.
func TestBreakerLatencyBudget(t *testing.T) {
	clk := faults.NewFakeClock()
	inj := faults.NewInjector(
		faults.FailN(2, faults.Fault{Kind: faults.Latency, Delay: 50 * time.Millisecond}), clk)
	b := newBreaker(t, faults.WrapFilter(bypassAll{}, inj), BreakerConfig{
		LatencyBudget:    10 * time.Millisecond,
		FailureThreshold: 2,
		Now:              clk.Now,
	})
	for i := 0; i < 2; i++ {
		if d := b.Decide(uint64(i), i, nil); !d.Degraded {
			t.Fatalf("over-budget call %d served undegraded: %+v", i, d)
		}
	}
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v, want open after over-budget decisions", b.State())
	}
	// Heal: in-budget decisions close the breaker again.
	clk.Advance(time.Second)
	if d := b.Decide(9, 9, nil); d.Degraded {
		t.Fatalf("in-budget probe degraded: %+v", d)
	}
	if b.State() != BreakerClosed {
		t.Fatalf("state=%v, want closed", b.State())
	}
}

// TestBreakerCustomFallback checks the doorkeeper-style fallback is
// consulted (not admit-all) while degraded.
func TestBreakerCustomFallback(t *testing.T) {
	dk, err := core.NewFrequencyAdmission(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	inj := faults.NewInjector(faults.Always(faults.Fault{Kind: faults.Error}), nil)
	b := newBreaker(t, faults.WrapFilter(bypassAll{}, inj), BreakerConfig{
		Fallback:         dk,
		FailureThreshold: 1,
	})
	// A doorkeeper bypasses first sight and admits on re-access.
	if d := b.Decide(7, 0, nil); d.Admit || !d.Degraded {
		t.Fatalf("first sight through doorkeeper fallback: %+v", d)
	}
	if d := b.Decide(7, 1, nil); !d.Admit || !d.Degraded {
		t.Fatalf("re-access through doorkeeper fallback: %+v", d)
	}
}

// switchFilter is a primary whose health the test flips: while fail is
// set, DecideErr errors. It counts its calls, and counts every call made
// while forbid is set as a violation.
type switchFilter struct {
	fail, forbid      atomic.Bool
	calls, violations atomic.Int64
}

func (f *switchFilter) Name() string { return "classifier" }
func (f *switchFilter) Decide(key uint64, tick int, feat []float64) core.Decision {
	d, _ := f.DecideErr(key, tick, feat)
	return d
}
func (f *switchFilter) DecideErr(uint64, int, []float64) (core.Decision, error) {
	f.calls.Add(1)
	if f.forbid.Load() {
		f.violations.Add(1)
	}
	if f.fail.Load() {
		return core.Decision{}, errors.New("switched off")
	}
	return core.Decision{Admit: false, PredictedOneTime: true}, nil
}

// countingFallback is admit-all that counts the decisions it serves.
type countingFallback struct{ calls atomic.Int64 }

func (f *countingFallback) Name() string { return "counting-admit-all" }
func (f *countingFallback) Decide(uint64, int, []float64) core.Decision {
	f.calls.Add(1)
	return core.Decision{Admit: true}
}

// TestBreakerSuccessResetsFailureCount pins that a success between two
// runs of threshold-1 failures resets the consecutive count: the
// lock-free success path must not skip the reset.
func TestBreakerSuccessResetsFailureCount(t *testing.T) {
	p := &switchFilter{}
	b := newBreaker(t, p, BreakerConfig{FailureThreshold: 3})
	fail := func(n int) {
		p.fail.Store(true)
		for i := 0; i < n; i++ {
			if d := b.Decide(uint64(i), i, nil); !d.Degraded {
				t.Fatalf("failed decision served undegraded: %+v", d)
			}
		}
		p.fail.Store(false)
	}
	fail(2)
	if d := b.Decide(10, 10, nil); d.Degraded {
		t.Fatalf("healthy decision degraded: %+v", d)
	}
	fail(2)
	if b.State() != BreakerClosed || b.Opens() != 0 {
		t.Fatalf("state=%v opens=%d after 2+success+2 failures at threshold 3, want closed/0", b.State(), b.Opens())
	}
	fail(1)
	if b.State() != BreakerOpen {
		t.Fatalf("state=%v after a third consecutive failure, want open", b.State())
	}
}

// TestBreakerConcurrentStateWalk drives eight goroutines of engine
// lookups through closed -> open -> half-open -> closed on a fake clock.
// Phases are separated by barriers, so each transition happens with no
// decision in flight: nothing reaches the primary while the breaker is
// open inside its cooldown, and the engine's Degraded counter equals the
// decisions the fallback served. Run under -race, it also checks the
// healthy fast path against the locked state machine.
func TestBreakerConcurrentStateWalk(t *testing.T) {
	clk := faults.NewFakeClock()
	p, fb := &switchFilter{}, &countingFallback{}
	b := newBreaker(t, p, BreakerConfig{
		Fallback:         fb,
		FailureThreshold: 3,
		Cooldown:         time.Second,
		HalfOpenProbes:   2,
		Now:              clk.Now,
	})
	policy, err := cache.NewSharded(1<<20, 8, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(policy, b)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perPhase = 8, 200
	var key atomic.Uint64 // every lookup a fresh key, so every lookup decides
	var degraded atomic.Int64
	phase := func() {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < perPhase; i++ {
					if eng.Lookup(key.Add(1), 64, eng.NextTick(), nil).Decision.Degraded {
						degraded.Add(1)
					}
				}
			}()
		}
		wg.Wait()
	}

	phase() // closed and healthy
	if b.State() != BreakerClosed || fb.calls.Load() != 0 {
		t.Fatalf("healthy phase: state=%v fallback=%d, want closed/0", b.State(), fb.calls.Load())
	}

	p.fail.Store(true)
	phase() // closed -> open
	if b.State() != BreakerOpen || b.Opens() != 1 {
		t.Fatalf("failing phase: state=%v opens=%d, want open/1", b.State(), b.Opens())
	}

	p.fail.Store(false)
	p.forbid.Store(true)
	clk.Advance(time.Second / 2)
	phase() // open, inside the cooldown
	p.forbid.Store(false)
	if v := p.violations.Load(); v != 0 {
		t.Fatalf("%d decisions reached the primary while open inside the cooldown", v)
	}

	clk.Advance(time.Second)
	phase() // half-open probes close the breaker
	if b.State() != BreakerClosed {
		t.Fatalf("probe phase: state=%v, want closed", b.State())
	}
	before := fb.calls.Load()
	phase() // closed again
	if fb.calls.Load() != before {
		t.Fatalf("closed breaker served %d fallback decisions", fb.calls.Load()-before)
	}

	m := eng.Snapshot()
	if m.Requests != 5*workers*perPhase || m.Misses != m.Requests {
		t.Fatalf("requests=%d misses=%d, want %d fresh-key misses", m.Requests, m.Misses, 5*workers*perPhase)
	}
	if m.Degraded != fb.calls.Load() || m.Degraded != degraded.Load() {
		t.Fatalf("engine Degraded=%d, fallback served %d, lookups saw %d degraded", m.Degraded, fb.calls.Load(), degraded.Load())
	}
	if served := p.calls.Load() - b.Failures(); served+fb.calls.Load() != m.Misses {
		t.Fatalf("primary served %d + fallback %d != %d misses", served, fb.calls.Load(), m.Misses)
	}
}

// TestEngineBreakerUnderRace drives a full engine whose classifier
// randomly errors and panics from many goroutines: no panic escapes,
// every request is decided, and the engine's Degraded counter accounts
// exactly for the fallback decisions.
func TestEngineBreakerUnderRace(t *testing.T) {
	policy, err := cache.NewSharded(1<<20, 8, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	sched := faults.Seeded(7, 0.2, faults.Fault{Kind: faults.Error})
	// Mix in panics on a coarser deterministic grid.
	mixed := faults.NewInjector(scheduleMix{sched}, nil)
	b, err := NewBreaker(faults.WrapFilter(bypassAll{}, mixed), BreakerConfig{
		FailureThreshold: 5,
		Cooldown:         time.Microsecond, // heals immediately under load
	})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(policy, b)
	if err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 8, 500
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				key := uint64(w*perWorker + i)
				eng.Lookup(key, 256, eng.NextTick(), nil)
			}
		}(w)
	}
	wg.Wait()

	m := eng.Snapshot()
	if m.Requests != workers*perWorker {
		t.Fatalf("requests=%d, want %d", m.Requests, workers*perWorker)
	}
	if m.Degraded == 0 {
		t.Fatal("expected degraded decisions under injected faults")
	}
	if m.Degraded > m.Misses {
		t.Fatalf("degraded=%d exceeds misses=%d", m.Degraded, m.Misses)
	}
	if b.Failures() == 0 {
		t.Fatal("expected primary failures")
	}
}

// scheduleMix layers an every-97th panic over a base schedule.
type scheduleMix struct{ base faults.Schedule }

func (s scheduleMix) Nth(n uint64) faults.Fault {
	if (n+1)%97 == 0 {
		return faults.Fault{Kind: faults.Panic}
	}
	return s.base.Nth(n)
}
