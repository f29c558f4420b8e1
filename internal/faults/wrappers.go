package faults

import (
	"net/http"

	"otacache/internal/cache"
	"otacache/internal/core"
)

// Filter interposes an Injector on an admission filter. It implements
// core.FallibleFilter: Error faults surface through DecideErr (the
// channel a circuit breaker consults), Latency faults stall the call on
// the injector's clock, and Panic faults panic — exercising all three
// degradation paths of the engine's admission breaker.
type Filter struct {
	Inner core.Filter
	Inj   *Injector
}

// WrapFilter wraps inner with fault injection.
func WrapFilter(inner core.Filter, inj *Injector) *Filter {
	return &Filter{Inner: inner, Inj: inj}
}

// Name implements core.Filter.
func (f *Filter) Name() string { return "faulty-" + f.Inner.Name() }

// DecideErr implements core.FallibleFilter.
func (f *Filter) DecideErr(key uint64, tick int, feat []float64) (core.Decision, error) {
	proceed, err := f.Inj.apply(f.Inj.next())
	if !proceed {
		return core.Decision{}, err
	}
	if ff, ok := f.Inner.(core.FallibleFilter); ok {
		return ff.DecideErr(key, tick, feat)
	}
	return f.Inner.Decide(key, tick, feat), nil
}

// Decide implements core.Filter. Error faults have no channel here, so
// the filter fails open (admit) — callers that care about the error
// path use DecideErr, as the circuit breaker does.
func (f *Filter) Decide(key uint64, tick int, feat []float64) core.Decision {
	d, err := f.DecideErr(key, tick, feat)
	if err != nil {
		return core.Decision{Admit: true}
	}
	return d
}

var _ core.FallibleFilter = (*Filter)(nil)

// Policy interposes an Injector on a replacement policy's mutating hot
// path (Get and Admit). Policies have no error channel, so Error faults
// degrade to a miss on Get and a dropped insert on Admit; Latency and
// Panic faults behave as for filters. Read-only accessors pass through
// untouched so metrics and snapshots observe the true state.
type Policy struct {
	Inner cache.Policy
	Inj   *Injector
}

// WrapPolicy wraps inner with fault injection.
func WrapPolicy(inner cache.Policy, inj *Injector) *Policy {
	return &Policy{Inner: inner, Inj: inj}
}

// Name implements cache.Policy.
func (p *Policy) Name() string { return "faulty-" + p.Inner.Name() }

// Get implements cache.Policy. An Error fault reads as a miss.
func (p *Policy) Get(key uint64, tick int) bool {
	proceed, _ := p.Inj.apply(p.Inj.next())
	if !proceed {
		return false
	}
	return p.Inner.Get(key, tick)
}

// Admit implements cache.Policy. An Error fault drops the insert.
func (p *Policy) Admit(key uint64, size int64, tick int) {
	proceed, _ := p.Inj.apply(p.Inj.next())
	if !proceed {
		return
	}
	p.Inner.Admit(key, size, tick)
}

// Contains implements cache.Policy (no injection).
func (p *Policy) Contains(key uint64) bool { return p.Inner.Contains(key) }

// Len implements cache.Policy (no injection).
func (p *Policy) Len() int { return p.Inner.Len() }

// Used implements cache.Policy (no injection).
func (p *Policy) Used() int64 { return p.Inner.Used() }

// Cap implements cache.Policy (no injection).
func (p *Policy) Cap() int64 { return p.Inner.Cap() }

// SetEvictNotify implements cache.Policy (no injection: a store under
// the policy must hear every eviction, faulted traffic or not).
func (p *Policy) SetEvictNotify(fn func(key uint64)) { p.Inner.SetEvictNotify(fn) }

// Range implements cache.Ranger when the inner policy does (no
// injection: snapshots must see true residency even mid-outage).
func (p *Policy) Range(fn func(key uint64, size int64) bool) {
	if r, ok := p.Inner.(cache.Ranger); ok {
		r.Range(fn)
	}
}

// CanRange reports whether the inner policy can enumerate its whole
// resident set (see cache.AsRanger).
func (p *Policy) CanRange() bool {
	_, ok := cache.AsRanger(p.Inner)
	return ok
}

// Remove implements cache.Remover when the inner policy does (no
// injection: phantom-resident eviction after a media failure must work
// even mid-outage, or the engine would re-serve a corrupt resident).
func (p *Policy) Remove(key uint64) bool {
	if r, ok := p.Inner.(cache.Remover); ok {
		return r.Remove(key)
	}
	return false
}

var _ cache.Policy = (*Policy)(nil)
var _ cache.Ranger = (*Policy)(nil)
var _ cache.Remover = (*Policy)(nil)

// Transport interposes an Injector on an http.RoundTripper: Error
// faults return before any bytes reach the wire (a connection-level
// failure, the class of error a client may retry even for non-idempotent
// requests), Latency faults stall the round trip. It is how the client's
// retry loop is tested against a deterministic failing network.
type Transport struct {
	Inner http.RoundTripper
	Inj   *Injector
}

// WrapTransport wraps inner (nil means http.DefaultTransport).
func WrapTransport(inner http.RoundTripper, inj *Injector) *Transport {
	if inner == nil {
		inner = http.DefaultTransport
	}
	return &Transport{Inner: inner, Inj: inj}
}

// RoundTrip implements http.RoundTripper.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	proceed, err := t.Inj.apply(t.Inj.next())
	if !proceed {
		return nil, err
	}
	return t.Inner.RoundTrip(req)
}

var _ http.RoundTripper = (*Transport)(nil)
