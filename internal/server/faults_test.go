package server

import (
	"context"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/faults"
)

// bypassStub is a deterministic stand-in classifier: it bypasses
// everything, so any admitted decision observed downstream must have
// come from the breaker's admit-all fallback.
type bypassStub struct{}

func (bypassStub) Name() string { return "classifier" }
func (bypassStub) Decide(uint64, int, []float64) core.Decision {
	return core.Decision{Admit: false, PredictedOneTime: true}
}

// errPanicMix injects errors on a seeded Bernoulli and a panic every
// 53rd call — both failure modes the breaker must absorb.
type errPanicMix struct{ base faults.Schedule }

func (s errPanicMix) Nth(n uint64) faults.Fault {
	if (n+1)%53 == 0 {
		return faults.Fault{Kind: faults.Panic}
	}
	return s.base.Nth(n)
}

// newFaultyServer builds a serving stack whose classifier fails per the
// schedule, guarded by a breaker (unless bare is set, in which case the
// faulty filter is wired in directly and only the HTTP-layer recovery
// middleware stands between a panic and the client).
func newFaultyServer(t *testing.T, sched faults.Schedule, bare bool) (*Server, *testServer) {
	t.Helper()
	policy, err := cache.NewSharded(1<<20, 4, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	var filter core.Filter = faults.WrapFilter(bypassStub{}, faults.NewInjector(sched, nil))
	if !bare {
		filter, err = engine.NewBreaker(filter, engine.BreakerConfig{
			FailureThreshold: 3,
			Cooldown:         time.Microsecond, // probe aggressively under load
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	eng, err := engine.New(policy, filter)
	if err != nil {
		t.Fatal(err)
	}
	srv := New(eng, Config{NumFeatures: 5})
	return srv, serveTest(t, srv)
}

// TestObjectPathNever5xxUnderClassifierFaults is the acceptance
// criterion: with the classifier randomly erroring and panicking under
// concurrent load, not one object request may surface as a 5xx — every
// request gets a real admission decision, the degraded ones are counted
// on /metrics, and some decisions demonstrably came from the fallback.
// Run under -race via make check.
func TestObjectPathNever5xxUnderClassifierFaults(t *testing.T) {
	_, hs := newFaultyServer(t, errPanicMix{faults.Seeded(3, 0.3, faults.Fault{Kind: faults.Error})}, false)

	const workers, perWorker = 8, 250
	var degraded, admitted atomic.Int64
	var wg sync.WaitGroup
	errCh := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(hs.URL, 1)
			// No retries: a single 5xx must fail the test, not be
			// papered over by a successful second attempt.
			c.SetRetry(RetryConfig{MaxAttempts: 1})
			feat := []float64{1, 2, 3, 4, 5}
			for i := 0; i < perWorker; i++ {
				res, err := c.Lookup(uint64(w*perWorker+i), 256, feat)
				if err != nil {
					select {
					case errCh <- err:
					default:
					}
					return
				}
				if res.Degraded {
					degraded.Add(1)
				}
				if res.Admitted {
					admitted.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	select {
	case err := <-errCh:
		t.Fatalf("object request failed under classifier faults: %v", err)
	default:
	}

	if degraded.Load() == 0 {
		t.Fatal("no degraded decisions observed; fault injection is vacuous")
	}
	// The stub bypasses everything, so every admission is the fallback's.
	if admitted.Load() == 0 {
		t.Fatal("admit-all fallback never admitted")
	}

	st, err := NewClient(hs.URL, 1).Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Cumulative.Degraded != degraded.Load() {
		t.Errorf("stats count %d degraded decisions, clients observed %d",
			st.Cumulative.Degraded, degraded.Load())
	}
	if st.Value("ota_breaker_failures_total", 0) == 0 || st.Value("ota_breaker_opens_total", 0) == 0 {
		t.Errorf("breaker families missing or idle: failures %v opens %v",
			st.Value("ota_breaker_failures_total", 0), st.Value("ota_breaker_opens_total", 0))
	}
	if n := st.Value("ota_panics_recovered_total", -1); n != 0 {
		t.Errorf("%v panics reached the HTTP middleware; the breaker must absorb them", n)
	}
}

// TestRecoveryMiddlewareAbsorbsPanics wires the faulty filter in with
// no breaker: the panic escapes the engine, and the HTTP middleware is
// the last line of defense — the client sees a 500, the process
// survives, and the next request is served normally.
func TestRecoveryMiddlewareAbsorbsPanics(t *testing.T) {
	srv, hs := newFaultyServer(t, faults.FailN(1, faults.Fault{Kind: faults.Panic}), true)
	c := NewClient(hs.URL, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 1})

	if _, err := c.Lookup(1, 256, nil); err == nil || !strings.Contains(err.Error(), "500") {
		t.Fatalf("panicking request: got %v, want a 500", err)
	}
	if srv.PanicsRecovered() != 1 {
		t.Fatalf("PanicsRecovered=%d, want 1", srv.PanicsRecovered())
	}
	if _, err := c.Lookup(2, 256, nil); err != nil {
		t.Fatalf("server did not survive the panic: %v", err)
	}
}

// TestClientRetriesLookup pins the retry loop against a transport that
// fails the first two attempts: the lookup succeeds on the third, and
// the retry counter reflects the two extra attempts.
func TestClientRetriesLookup(t *testing.T) {
	_, hs := newFaultyServer(t, faults.Never(), false)
	c := NewClient(hs.URL, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	c.SetTransport(faults.WrapTransport(nil,
		faults.NewInjector(faults.FailN(2, faults.Fault{Kind: faults.Error}), nil)))

	if _, err := c.Lookup(1, 256, nil); err != nil {
		t.Fatalf("lookup with 2 transient faults and 3 attempts failed: %v", err)
	}
	if c.RetriesUsed() != 2 {
		t.Fatalf("RetriesUsed=%d, want 2", c.RetriesUsed())
	}
}

// TestClientOfferDoesNotRetryAfterSend pins the idempotency rule: an
// Offer whose transport fails with a non-connection error (the request
// may have reached the server) fails fast instead of double-counting
// the access.
func TestClientOfferDoesNotRetryAfterSend(t *testing.T) {
	_, hs := newFaultyServer(t, faults.Never(), false)
	c := NewClient(hs.URL, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond})
	c.SetTransport(faults.WrapTransport(nil,
		faults.NewInjector(faults.FailN(1, faults.Fault{Kind: faults.Error}), nil)))

	if _, err := c.Offer(1, 256, nil); err == nil {
		t.Fatal("offer with an injected mid-flight fault must fail")
	}
	if c.RetriesUsed() != 0 {
		t.Fatalf("offer consumed %d retries, want 0", c.RetriesUsed())
	}
	// The same client retries a connection-level failure: against a
	// closed port every attempt is a dial error, so the budget is spent.
	dead := NewClient("http://127.0.0.1:1", 1)
	dead.SetRetry(RetryConfig{MaxAttempts: 2, BaseBackoff: time.Millisecond})
	if _, err := dead.Offer(1, 256, nil); err == nil {
		t.Fatal("offer against a dead daemon must fail")
	}
	if dead.RetriesUsed() != 1 {
		t.Fatalf("dead-daemon offer used %d retries, want 1 (connection errors are retryable)", dead.RetriesUsed())
	}
}

// TestClientRetryBudget pins the lifetime cap: once the budget is
// spent, requests fail on their first error instead of backing off.
func TestClientRetryBudget(t *testing.T) {
	c := NewClient("http://127.0.0.1:1", 1)
	c.SetRetry(RetryConfig{MaxAttempts: 3, BaseBackoff: time.Millisecond, Budget: 2})

	if _, err := c.Lookup(1, 256, nil); err == nil {
		t.Fatal("lookup against a dead daemon must fail")
	}
	if c.RetriesUsed() != 2 {
		t.Fatalf("RetriesUsed=%d, want the full budget of 2", c.RetriesUsed())
	}
	_, err := c.Lookup(2, 256, nil)
	if err == nil || !strings.Contains(err.Error(), "retry budget exhausted") {
		t.Fatalf("post-budget lookup: got %v, want budget exhaustion", err)
	}
	if c.RetriesUsed() != 2 {
		t.Fatalf("RetriesUsed=%d after budget exhaustion, want 2", c.RetriesUsed())
	}
}

// TestReadyzDistinctFromHealthz pins the readiness lifecycle: /healthz
// answers as soon as the process serves, /readyz flips with the gate,
// and WaitReady blocks until it opens.
func TestReadyzDistinctFromHealthz(t *testing.T) {
	srv, hs := newFaultyServer(t, faults.Never(), false)
	c := NewClient(hs.URL, 1)

	srv.SetNotReady("restoring snapshot")
	if err := c.Health(); err != nil {
		t.Fatalf("healthz must answer while not ready: %v", err)
	}
	err := c.Ready()
	if err == nil || !strings.Contains(err.Error(), "restoring snapshot") {
		t.Fatalf("readyz while gated: got %v, want the gate reason", err)
	}

	go func() {
		time.Sleep(20 * time.Millisecond)
		srv.SetReady()
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := c.WaitReady(ctx, 5*time.Millisecond); err != nil {
		t.Fatalf("WaitReady: %v", err)
	}
	if err := c.Ready(); err != nil {
		t.Fatalf("readyz after gate opened: %v", err)
	}
}
