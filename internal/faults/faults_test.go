package faults

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
)

func TestSchedules(t *testing.T) {
	errF := Fault{Kind: Error}
	cases := []struct {
		name  string
		s     Schedule
		wants []Kind // kinds for call indexes 0..len-1
	}{
		{"never", Never(), []Kind{None, None, None}},
		{"always", Always(errF), []Kind{Error, Error, Error}},
		{"failN", FailN(2, errF), []Kind{Error, Error, None, None}},
		{"after", After(2, FailN(1, errF)), []Kind{None, None, Error, None}},
		{"everyNth", EveryNth(3, errF), []Kind{None, None, Error, None, None, Error}},
	}
	for _, tc := range cases {
		for i, want := range tc.wants {
			if got := tc.s.Nth(uint64(i)).Kind; got != want {
				t.Errorf("%s.Nth(%d) = %v, want %v", tc.name, i, got, want)
			}
		}
	}
}

func TestSeededDeterministicAndRoughlyFair(t *testing.T) {
	s := Seeded(42, 0.3, Fault{Kind: Error})
	n, faults := 10000, 0
	for i := 0; i < n; i++ {
		a, b := s.Nth(uint64(i)), s.Nth(uint64(i))
		if a != b {
			t.Fatalf("Nth(%d) not deterministic", i)
		}
		if a.Kind == Error {
			faults++
		}
	}
	frac := float64(faults) / float64(n)
	if frac < 0.25 || frac > 0.35 {
		t.Fatalf("Seeded(p=0.3) injected %.3f of calls", frac)
	}
	// A different seed draws a different fault set.
	other := Seeded(43, 0.3, Fault{Kind: Error})
	same := 0
	for i := 0; i < n; i++ {
		if s.Nth(uint64(i)).Kind == other.Nth(uint64(i)).Kind {
			same++
		}
	}
	if same == n {
		t.Fatal("two seeds produced identical fault sets")
	}
}

func TestFakeClock(t *testing.T) {
	c := NewFakeClock()
	t0 := c.Now()
	c.Sleep(3 * time.Second)
	c.Advance(2 * time.Second)
	if d := c.Now().Sub(t0); d != 5*time.Second {
		t.Fatalf("fake clock advanced %v, want 5s", d)
	}
}

func TestFilterWrapper(t *testing.T) {
	inj := NewInjector(FailN(2, Fault{Kind: Error}), nil)
	f := WrapFilter(core.AdmitAll{}, inj)

	if _, err := f.DecideErr(1, 0, nil); err == nil {
		t.Fatal("call 0 must error")
	}
	// Decide fails open on an error fault.
	if d := f.Decide(1, 1, nil); !d.Admit {
		t.Fatal("Decide must fail open on an injected error")
	}
	if d, err := f.DecideErr(1, 2, nil); err != nil || !d.Admit {
		t.Fatalf("recovered call = %+v, %v", d, err)
	}
	if inj.Calls() != 3 || inj.Injected() != 2 {
		t.Fatalf("calls=%d injected=%d, want 3/2", inj.Calls(), inj.Injected())
	}
}

func TestFilterWrapperPanics(t *testing.T) {
	inj := NewInjector(Always(Fault{Kind: Panic}), nil)
	f := WrapFilter(core.AdmitAll{}, inj)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected injected panic")
		}
		if s, ok := r.(string); !ok || !strings.Contains(s, PanicValue) {
			t.Fatalf("panic value %v does not carry PanicValue", r)
		}
	}()
	f.DecideErr(1, 0, nil)
}

func TestFilterWrapperLatencyOnFakeClock(t *testing.T) {
	clk := NewFakeClock()
	inj := NewInjector(Always(Fault{Kind: Latency, Delay: 50 * time.Millisecond}), clk)
	f := WrapFilter(core.AdmitAll{}, inj)
	t0 := clk.Now()
	wall := time.Now()
	if d, err := f.DecideErr(9, 0, nil); err != nil || !d.Admit {
		t.Fatalf("latency fault must not change the decision: %+v, %v", d, err)
	}
	if got := clk.Now().Sub(t0); got != 50*time.Millisecond {
		t.Fatalf("fake clock advanced %v, want 50ms", got)
	}
	if real := time.Since(wall); real > time.Second {
		t.Fatalf("latency fault on a fake clock took %v of wall time", real)
	}
}

func TestPolicyWrapper(t *testing.T) {
	inj := NewInjector(FailN(1, Fault{Kind: Error}), nil)
	p := WrapPolicy(cache.NewLRU(1000), inj)
	p.Admit(1, 100, 0) // call 0: dropped by the fault
	if p.Contains(1) {
		t.Fatal("faulted Admit must not insert")
	}
	p.Admit(1, 100, 1) // recovered
	if !p.Contains(1) || !p.Get(1, 2) {
		t.Fatal("recovered Admit/Get must behave normally")
	}
	keys := 0
	p.Range(func(uint64, int64) bool { keys++; return true })
	if keys != 1 {
		t.Fatalf("Range saw %d keys, want 1", keys)
	}
}

func TestTransportWrapper(t *testing.T) {
	var served int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		served++
	}))
	defer ts.Close()

	inj := NewInjector(EveryNth(2, Fault{Kind: Error}), nil)
	hc := &http.Client{Transport: WrapTransport(nil, inj)}
	if _, err := hc.Get(ts.URL); err != nil {
		t.Fatalf("call 0 must pass: %v", err)
	}
	if _, err := hc.Get(ts.URL); err == nil {
		t.Fatal("call 1 must fail")
	} else if !strings.Contains(err.Error(), "injected error") {
		t.Fatalf("unexpected error: %v", err)
	}
	if served != 1 {
		t.Fatalf("server saw %d requests, want 1 (faulted call must not reach the wire)", served)
	}
}

// TestInjectorConcurrentDeterministicMultiset pins the concurrency
// contract: under parallel callers the set of injected faults is exactly
// the schedule's, regardless of interleaving.
func TestInjectorConcurrentDeterministicMultiset(t *testing.T) {
	const calls, workers = 1000, 8
	inj := NewInjector(EveryNth(10, Fault{Kind: Error}), nil)
	f := WrapFilter(core.AdmitAll{}, inj)
	var wg sync.WaitGroup
	errs := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < calls/workers; i++ {
				if _, err := f.DecideErr(uint64(i), i, nil); err != nil {
					errs[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, e := range errs {
		total += e
	}
	if total != calls/10 {
		t.Fatalf("injected %d errors across workers, want exactly %d", total, calls/10)
	}
}

// TestPolicyWrapperCanRange pins that the faulty policy wrapper reports
// its inner policy's resident walk honestly: it implements Range for
// every inner policy, so cache.AsRanger must ask it whether the inner
// one can range, or a snapshot through a wrapped Belady would be empty.
func TestPolicyWrapperCanRange(t *testing.T) {
	next := make([]int, 16)
	for _, tc := range []struct {
		inner string
		want  bool
	}{{"lru", true}, {"belady", false}} {
		inner, err := cache.New(tc.inner, 1<<20, next)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := cache.AsRanger(&Policy{Inner: inner}); ok != tc.want {
			t.Errorf("faulty %s: AsRanger ok=%v, want %v", tc.inner, ok, tc.want)
		}
	}
}
