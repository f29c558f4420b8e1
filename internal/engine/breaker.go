package engine

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/core"
	"otacache/internal/obs"
)

// BreakerState is the circuit breaker's serving mode.
type BreakerState int32

// Breaker states.
const (
	// BreakerClosed serves every decision from the primary filter.
	BreakerClosed BreakerState = iota
	// BreakerOpen serves every decision from the fallback until the
	// cooldown elapses.
	BreakerOpen
	// BreakerHalfOpen lets one probe at a time through to the primary;
	// everything else stays on the fallback until the probes succeed.
	BreakerHalfOpen
)

// String names the state.
func (s BreakerState) String() string {
	switch s {
	case BreakerOpen:
		return "open"
	case BreakerHalfOpen:
		return "half-open"
	default:
		return "closed"
	}
}

// BreakerConfig tunes the admission circuit breaker.
type BreakerConfig struct {
	// Fallback serves decisions while the primary is unavailable
	// (nil = core.AdmitAll, the pre-classifier "Original" behaviour; a
	// core.FrequencyAdmission doorkeeper is the other sensible choice).
	// It must be safe for concurrent use and must not fail.
	Fallback core.Filter
	// LatencyBudget fails a primary decision that takes longer than
	// this (0 = no budget). An over-budget decision is discarded and
	// the fallback serves that request.
	LatencyBudget time.Duration
	// FailureThreshold is how many consecutive primary failures open
	// the breaker (0 = 3).
	FailureThreshold int
	// Cooldown is how long the breaker stays open before letting a
	// probe through (0 = 1s).
	Cooldown time.Duration
	// HalfOpenProbes is how many consecutive probe successes close the
	// breaker again (0 = 1).
	HalfOpenProbes int
	// Now is the clock (nil = time.Now); tests inject a fake clock so
	// cooldown and latency-budget behaviour need no real sleeping.
	Now func() time.Time
}

func (c *BreakerConfig) normalize() {
	if c.Fallback == nil {
		c.Fallback = core.AdmitAll{}
	}
	if c.FailureThreshold <= 0 {
		c.FailureThreshold = 3
	}
	if c.Cooldown <= 0 {
		c.Cooldown = time.Second
	}
	if c.HalfOpenProbes <= 0 {
		c.HalfOpenProbes = 1
	}
	if c.Now == nil {
		//lint:allow detclock real-clock default of the injectable Now seam
		c.Now = time.Now
	}
}

// Breaker is a circuit breaker around an admission filter: the
// graceful-degradation layer between the engine and the classifier.
// A classifier that panics, returns errors (via core.FallibleFilter),
// or overruns its latency budget must never take object serving down
// with it — the affected request (and, once the breaker opens, all
// requests until the primary heals) is decided by a cheap fallback
// filter instead, marked Decision.Degraded so the engine counts it.
//
// State machine: consecutive primary failures >= FailureThreshold trip
// Closed -> Open. After Cooldown, the next request transitions to
// HalfOpen and becomes a probe against the primary; HalfOpenProbes
// consecutive probe successes close the breaker, any probe failure
// reopens it for another cooldown. While a probe is in flight the
// remaining traffic keeps degrading to the fallback, so one stuck
// probe cannot stall serving.
//
// Breaker implements core.Filter and is safe for concurrent use when
// its primary and fallback are. Name returns the primary's name, so
// clients keyed on the filter identity (otaload's feature
// auto-detection) behave the same with or without the breaker.
type Breaker struct {
	primary  core.Filter
	fallible core.FallibleFilter // non-nil when primary reports errors
	cfg      BreakerConfig

	// healthy mirrors "state == BreakerClosed && fails == 0". It is
	// written only under mu, by onSuccess and onFailure, the only paths
	// that can close the breaker or count a failure. While it is set, a
	// decision's admission check and success report are each one atomic
	// load; everything else takes mu.
	healthy atomic.Bool

	mu        sync.Mutex
	state     BreakerState
	fails     int  // consecutive failures while closed
	successes int  // consecutive probe successes while half-open
	probing   bool // a half-open probe is in flight
	openedAt  time.Time

	opens    atomic.Int64
	failures atomic.Int64
	lastErr  atomic.Value // error

	// hist, when attached, observes every primary decision's latency —
	// the classifier inference time the paper's latency model assumes
	// constant, measured live. Atomic because SetHistogram may race
	// serving traffic.
	hist atomic.Pointer[obs.Histogram]
}

// NewBreaker wraps primary. See BreakerConfig for the knobs.
func NewBreaker(primary core.Filter, cfg BreakerConfig) (*Breaker, error) {
	if primary == nil {
		return nil, fmt.Errorf("engine: breaker needs a primary filter")
	}
	cfg.normalize()
	b := &Breaker{primary: primary, cfg: cfg}
	b.fallible, _ = primary.(core.FallibleFilter)
	b.healthy.Store(true)
	return b, nil
}

// Name implements core.Filter, reporting the primary's identity.
func (b *Breaker) Name() string { return b.primary.Name() }

// Primary returns the wrapped filter (for admin endpoints that need
// the concrete admission system, e.g. classifier hot-swap).
func (b *Breaker) Primary() core.Filter { return b.primary }

// Fallback returns the degraded-mode filter.
func (b *Breaker) Fallback() core.Filter { return b.cfg.Fallback }

// State returns the current serving mode.
func (b *Breaker) State() BreakerState {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.state
}

// Opens returns how many times the breaker has tripped open.
func (b *Breaker) Opens() int64 { return b.opens.Load() }

// Failures returns how many primary decisions have failed.
func (b *Breaker) Failures() int64 { return b.failures.Load() }

// SetHistogram attaches (or, with nil, detaches) a latency histogram
// observing primary decisions. The Breaker reads its clock only for a
// timed decision — one with a histogram attached or a LatencyBudget
// set — so attaching a histogram to an unbudgeted breaker adds two
// clock reads per decision.
func (b *Breaker) SetHistogram(h *obs.Histogram) { b.hist.Store(h) }

// LastError returns the most recent primary failure (nil if none).
func (b *Breaker) LastError() error {
	if err, ok := b.lastErr.Load().(error); ok {
		return err
	}
	return nil
}

// Decide implements core.Filter.
func (b *Breaker) Decide(key uint64, tick int, feat []float64) core.Decision {
	if !b.tryPrimary() {
		return b.degrade(key, tick, feat)
	}
	d, err := b.callPrimary(key, tick, feat)
	if err != nil {
		b.failures.Add(1)
		b.lastErr.Store(err)
		b.onFailure()
		return b.degrade(key, tick, feat)
	}
	b.onSuccess()
	return d
}

// degrade serves one decision from the fallback, marked Degraded.
func (b *Breaker) degrade(key uint64, tick int, feat []float64) core.Decision {
	d := b.cfg.Fallback.Decide(key, tick, feat)
	d.Degraded = true
	return d
}

// tryPrimary decides whether this request may consult the primary,
// advancing Open -> HalfOpen when the cooldown has elapsed.
func (b *Breaker) tryPrimary() bool {
	if b.healthy.Load() {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case BreakerClosed:
		return true
	case BreakerOpen:
		if b.cfg.Now().Sub(b.openedAt) < b.cfg.Cooldown {
			return false
		}
		b.state = BreakerHalfOpen
		b.successes = 0
		b.probing = true
		return true
	default: // half-open: one probe at a time
		if b.probing {
			return false
		}
		b.probing = true
		return true
	}
}

// callPrimary runs one primary decision with panic recovery, the error
// channel, and the latency budget. The clock is read only when the
// decision is timed: a histogram is attached or a budget is set.
func (b *Breaker) callPrimary(key uint64, tick int, feat []float64) (d core.Decision, err error) {
	h := b.hist.Load()
	var start time.Time
	if h != nil || b.cfg.LatencyBudget > 0 {
		start = b.cfg.Now()
	}
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("admission filter panic: %v", r)
		}
	}()
	if b.fallible != nil {
		d, err = b.fallible.DecideErr(key, tick, feat)
	} else {
		d = b.primary.Decide(key, tick, feat)
	}
	if h != nil || (err == nil && b.cfg.LatencyBudget > 0) {
		elapsed := b.cfg.Now().Sub(start)
		if h != nil {
			h.Record(int64(elapsed))
		}
		if err == nil && b.cfg.LatencyBudget > 0 && elapsed > b.cfg.LatencyBudget {
			err = fmt.Errorf("admission decision took %v, budget %v", elapsed, b.cfg.LatencyBudget)
		}
	}
	return d, err
}

// onSuccess records a healthy primary decision.
func (b *Breaker) onSuccess() {
	if b.healthy.Load() {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.syncHealthy()
	switch b.state {
	case BreakerClosed:
		b.fails = 0
	case BreakerHalfOpen:
		b.probing = false
		b.successes++
		if b.successes >= b.cfg.HalfOpenProbes {
			b.state = BreakerClosed
			b.fails = 0
		}
	}
}

// onFailure records a failed primary decision, tripping or re-opening
// the breaker as the state machine dictates.
func (b *Breaker) onFailure() {
	b.mu.Lock()
	defer b.mu.Unlock()
	defer b.syncHealthy()
	switch b.state {
	case BreakerClosed:
		b.fails++
		if b.fails >= b.cfg.FailureThreshold {
			b.trip()
		}
	case BreakerHalfOpen:
		b.probing = false
		b.trip()
	case BreakerOpen:
		// A straggler that drew primary access before the trip; the
		// breaker is already open.
	}
}

// trip opens the breaker (mu held).
func (b *Breaker) trip() {
	b.state = BreakerOpen
	b.openedAt = b.cfg.Now()
	b.fails = 0
	b.opens.Add(1)
}

// syncHealthy republishes the fast-path flag from state and fails (mu
// held).
func (b *Breaker) syncHealthy() {
	b.healthy.Store(b.state == BreakerClosed && b.fails == 0)
}

var _ core.Filter = (*Breaker)(nil)

// Admission unwraps degradation layers to the classifier admission
// behind f, so hot-swap and retraining keep working when a breaker
// fronts the classifier; nil when there is none. Any wrapper exposing
// Primary() participates.
func Admission(f core.Filter) *core.ClassifierAdmission {
	for f != nil {
		switch v := f.(type) {
		case *core.ClassifierAdmission:
			return v
		case interface{ Primary() core.Filter }:
			f = v.Primary()
		default:
			return nil
		}
	}
	return nil
}

// Admissions returns the classifier admissions behind srv's shard
// filters, in shard order, dropping shards that run without one: the
// set the -model install and the retrainer point at.
func Admissions(srv Server) []*core.ClassifierAdmission {
	var out []*core.ClassifierAdmission
	for _, sh := range srv.Shards() {
		if adm := Admission(sh.Filter()); adm != nil {
			out = append(out, adm)
		}
	}
	return out
}
