// Package engine provides the serving-ready form of the paper's
// classification system (Figure 4): a thread-safe cache Engine that
// composes a replacement policy with an admission filter behind one
// entry point, counting the metrics the evaluation reports with atomic
// counters.
//
// The same Engine is driven by three callers with very different
// concurrency profiles:
//
//   - the single-threaded trace simulator (internal/sim), which wraps
//     it in per-request feature extraction, retraining, and the latency
//     model;
//   - the two-tier OC/DC hierarchy (internal/tier), one Engine per
//     layer;
//   - a concurrent cache server, which calls Lookup from many
//     goroutines against a cache.Sharded policy and a concurrency-safe
//     filter (a Breaker over core.ClassifierAdmission, whose model swap
//     is an atomic pointer and whose history table takes one mutex).
//
// Thread safety is compositional: the Engine's own counters are atomic,
// so Lookup and Snapshot are safe from any number of goroutines
// provided the composed Policy and Filter are themselves safe for
// concurrent use (cache.Sharded; core.AdmitAll, core.OracleAdmission,
// core.ClassifierAdmission, core.FrequencyAdmission). The bare
// single-threaded policies (cache.NewLRU etc.) remain valid for
// single-goroutine callers such as the simulator.
//
// A flash shard has one lock. An engine with a flash store attached runs
// each request under its own lock, so an admission and its flash write
// are one step, and under that lock it drives a cache.Sharded policy
// through the unlocked view (cache.Sharded.Unlocked) and a store that
// takes no lock of its own. Every other reader or writer of such a
// shard's policy or store — the scrubber, Snapshot, the server's gauges
// and snapshot walk, RebuildFlash — goes through the same lock, by way
// of WithFlash and RangeResidents.
package engine

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/flash"
)

// Engine is the admission pipeline: Get consults the policy, Offer runs
// the admission filter on a miss and inserts on admit, Lookup chains
// the two. It is safe for concurrent use when its policy and filter
// are (see the package comment).
type Engine struct {
	policy cache.Policy
	filter core.Filter
	tick   atomic.Int64
	// flash is the optional log-structured device layer under this
	// shard's policy: admitted writes land in it, so the snapshot
	// carries device-measured write amplification instead of a profile
	// constant. Set under mu; atomic so a request can tell, before it
	// takes mu, whether it needs it.
	flash atomic.Pointer[flash.Store]
	// inst is the optional measurement plane (sampled lookup latency
	// histograms); same atomic-attach contract as flash. See
	// Instruments.
	inst atomic.Pointer[Instruments]

	// c holds the engine-owned counters, indexed by the c* constants.
	c [numEngineCounters]atomic.Int64
	// mu serializes Lookup, Get and Offer while a store is attached, so
	// no eviction can fall between an admission and its flash write, and
	// it is the only lock such a shard takes: under it the policy is
	// driven through own and the store locks nothing. Engines without a
	// store never take it (see DESIGN §9). It sits last: ahead of the
	// counters it moved the fields every request touches, which cost
	// engine-proposal a few per cent.
	mu sync.Mutex
	// own is the policy a request holding mu drives while a store is
	// attached: policy's unlocked view when policy is a *cache.Sharded,
	// else policy itself. Fixed at New.
	own cache.Policy
}

// Outcome describes one Lookup (or Offer) with enough detail for a
// caller to account latency and classification quality.
type Outcome struct {
	// Hit reports that the object was resident; the remaining fields
	// are zero on a hit.
	Hit bool
	// Decision is the filter's verdict for the miss.
	Decision core.Decision
	// Written reports that this request inserted the admitted object:
	// false when the policy rejected it (an over-capacity object) or a
	// concurrent request inserted it first. Writes counts these.
	Written bool
}

// Metrics is a point-in-time snapshot of the Engine's counters. A flash
// shard's snapshot is one atomic cut, taken under its lock. Without a
// store, each counter is individually exact under concurrent traffic
// but the set is not a single atomic cut.
type Metrics struct {
	Requests   int64
	Hits       int64
	HitBytes   int64
	Misses     int64
	Writes     int64
	WriteBytes int64
	Bypassed   int64
	Rectified  int64
	// Degraded counts admission decisions served by a fallback path
	// (circuit breaker open, or the primary filter failed on that call)
	// rather than the primary filter — see Breaker.
	Degraded   int64
	TotalBytes int64
	// FlashHostBytes, FlashGCBytes, and FlashErases mirror the attached
	// flash store's wear counters (zero when no store is attached):
	// host-written bytes, GC-relocated bytes, and block erasures. The
	// measured device WAF is (host + gc) / host — see FlashWAF.
	FlashHostBytes int64
	FlashGCBytes   int64
	FlashErases    int64
	// FlashReadErrors, FlashCorruptExtents, and FlashRetiredBlocks mirror
	// the store's media-fault counters: uncorrectable device reads,
	// extents dropped on checksum mismatch, and erase blocks retired for
	// program/erase failure. Every one of these corresponds to a request
	// the engine degraded to a miss (or a scrub drop) rather than a
	// served error — the serving-visible face of the flash fault domain.
	FlashReadErrors     int64
	FlashCorruptExtents int64
	FlashRetiredBlocks  int64
}

// HitRate returns Hits / Requests.
func (m Metrics) HitRate() float64 { return ratio(m.Hits, m.Requests) }

// ByteHitRate returns HitBytes / TotalBytes.
func (m Metrics) ByteHitRate() float64 { return ratio(m.HitBytes, m.TotalBytes) }

// WriteRate returns SSD object writes / requests (§5.3.3).
func (m Metrics) WriteRate() float64 { return ratio(m.Writes, m.Requests) }

// ByteWriteRate returns SSD bytes written / requested bytes (§5.3.4).
func (m Metrics) ByteWriteRate() float64 { return ratio(m.WriteBytes, m.TotalBytes) }

// FlashWAF returns the device-measured write amplification factor,
// (FlashHostBytes + FlashGCBytes) / FlashHostBytes, or 1 when no flash
// writes have been observed (the log-structured floor).
func (m Metrics) FlashWAF() float64 {
	if m.FlashHostBytes == 0 {
		return 1
	}
	return float64(m.FlashHostBytes+m.FlashGCBytes) / float64(m.FlashHostBytes)
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Sub returns the interval delta m - prev, field by field. Taking two
// Snapshots (or two /metrics scrapes) around a window and subtracting
// them yields that window's traffic, so a scraper and a load generator
// can report rates over an interval instead of since-boot cumulatives.
func (m Metrics) Sub(prev Metrics) Metrics {
	for _, c := range Counters {
		*c.Field(&m) -= *c.Field(&prev)
	}
	return m
}

// Add returns the field-wise sum m + other. ShardedEngine.Snapshot
// folds its shards' snapshots through Add, so — like Sub — it covers
// every row of Counters: a counter missing here would silently vanish
// from every aggregated metric.
func (m Metrics) Add(other Metrics) Metrics {
	for _, c := range Counters {
		*c.Field(&m) += *c.Field(&other)
	}
	return m
}

// New assembles an Engine. filter == nil means admit every miss
// (core.AdmitAll, the paper's "Original" behaviour).
func New(policy cache.Policy, filter core.Filter) (*Engine, error) {
	if policy == nil {
		return nil, fmt.Errorf("engine: nil policy")
	}
	if filter == nil {
		filter = core.AdmitAll{}
	}
	e := &Engine{policy: policy, filter: filter, own: policy}
	if s, ok := policy.(*cache.Sharded); ok {
		e.own = s.Unlocked()
	}
	return e, nil
}

// Policy returns the composed replacement policy. While a flash shard
// serves, its requests skip the policy's stripe locks, so a live reader
// of such a shard's policy goes through WithFlash or RangeResidents
// instead; Name and Cap are safe from anywhere.
func (e *Engine) Policy() cache.Policy { return e.policy }

// Filter returns the composed admission filter.
func (e *Engine) Filter() core.Filter { return e.filter }

// NextTick returns a fresh monotonically increasing tick. Trace-driven
// callers pass their own request index instead; a live server that has
// no global request ordering uses this counter for the history table's
// reaccess distances.
func (e *Engine) NextTick() int { return nextTick(&e.tick) }

// nextTick draws the next tick from c and converts it to the int the
// rest of the pipeline speaks. The conversion is guarded: on a 32-bit
// platform a counter past MaxInt32 would otherwise wrap silently and
// corrupt every reaccess distance downstream, so overflowing int is a
// hard fault rather than quiet data corruption. (At 100k req/s that is
// ~6 hours of 32-bit uptime — reachable in production, unreachable by
// accident in tests.)
func nextTick(c *atomic.Int64) int {
	t := c.Add(1) - 1
	if int64(int(t)) != t {
		panic(fmt.Sprintf("engine: tick %d overflows int on this platform", t))
	}
	return int(t)
}

// Tick returns the next tick NextTick would hand out, without
// consuming it — the value a snapshot persists.
func (e *Engine) Tick() int64 { return e.tick.Load() }

// ResumeTick fast-forwards the tick counter to resume a snapshotted
// daemon: restored history-table ticks keep their meaning only if new
// requests continue the old numbering instead of restarting at zero
// (a restart at zero would make every restored entry look M ticks
// stale, or worse, in the future). Call before serving traffic.
func (e *Engine) ResumeTick(t int64) { e.tick.Store(t) }

// Get consults the policy for key, updating hit/miss counters. It is
// the first half of Lookup, exposed separately for callers (such as the
// tiered hierarchy) whose admission happens later on the return path.
//
// With a flash store attached, a policy hit is served only after the
// backing extent verifies: a media failure (uncorrectable read, checksum
// mismatch) degrades the request to a cache miss — the policy's phantom
// resident is evicted so the next admission re-materializes the object —
// never a serving error. An extent that is merely absent (the store
// rejected the admit as oversize or out of space) is not a media fault
// and hits normally; the policy is the residency authority there.
func (e *Engine) Get(key uint64, size int64, tick int) bool {
	if e.flash.Load() == nil {
		return e.get(key, size, tick, e.policy, nil)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, fs := e.owned()
	return e.get(key, size, tick, p, fs)
}

// owned returns the policy and store a caller holding mu drives: the
// unlocked view and the attached store, or the policy and nil when the
// store was detached while the caller waited for mu.
func (e *Engine) owned() (cache.Policy, *flash.Store) {
	if fs := e.flash.Load(); fs != nil {
		return e.own, fs
	}
	return e.policy, nil
}

// get is Get's body over policy p; fs is the attached store, and the
// caller holds mu when it is not nil.
func (e *Engine) get(key uint64, size int64, tick int, p cache.Policy, fs *flash.Store) bool {
	e.c[cRequests].Add(1)
	e.c[cTotalBytes].Add(size)
	if p.Get(key, tick) {
		if fs != nil {
			if _, _, err := fs.ReadExtent(key); err != nil && !errors.Is(err, flash.ErrNotFound) {
				// The store already dropped the extent and charged its
				// ReadErrors/CorruptExtents counter; evict the phantom so
				// the policy agrees the bytes are gone.
				if r, ok := p.(cache.Remover); ok {
					r.Remove(key)
				}
				e.c[cMisses].Add(1)
				return false
			}
		}
		e.c[cHits].Add(1)
		e.c[cHitBytes].Add(size)
		return true
	}
	e.c[cMisses].Add(1)
	return false
}

// Offer runs the admission filter for a missed object and inserts it
// into the policy on admit. feat is the request's feature vector (nil
// for filters that do not use features).
func (e *Engine) Offer(key uint64, size int64, tick int, feat []float64) Outcome {
	if e.flash.Load() == nil {
		return e.offer(key, size, tick, feat, e.policy, nil)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	p, fs := e.owned()
	return e.offer(key, size, tick, feat, p, fs)
}

// offer is Offer's body over policy p; fs is the attached store, and
// the caller holds mu when it is not nil.
func (e *Engine) offer(key uint64, size int64, tick int, feat []float64, p cache.Policy, fs *flash.Store) Outcome {
	d := e.filter.Decide(key, tick, feat)
	if d.Rectified {
		e.c[cRectified].Add(1)
	}
	if d.Degraded {
		e.c[cDegraded].Add(1)
	}
	if !d.Admit {
		e.c[cBypassed].Add(1)
		return Outcome{Decision: d}
	}
	out := Outcome{Decision: d}
	if admitted(p, key, size, tick) {
		out.Written = true
		e.c[cWrites].Add(1)
		e.c[cWriteBytes].Add(size)
		// An accepted admission is a device write: land the extent in the
		// attached flash store so its collector measures the real
		// amplification of this admission stream. mu keeps every other
		// admission, and so every eviction, out until the extent exists.
		if fs != nil {
			//lint:allow errsink the store charges Oversize/Dropped internally; the engine already counted the admission above
			fs.Write(key, size, nil)
		}
	}
	return out
}

// admitted admits key into p and reports whether this call made it
// resident, so a write is counted once however many requests missed the
// key together. A cache.Sharded policy answers under one stripe
// acquisition. Any other policy is asked Contains after the Admit,
// which is exact when one request at a time drives it (a bare policy,
// or the unlocked view under mu): the Get that just missed means the
// key was absent. A concurrent wrapper around a cache.Sharded is not
// exact.
func admitted(p cache.Policy, key uint64, size int64, tick int) bool {
	if s, ok := p.(*cache.Sharded); ok {
		return s.Insert(key, size, tick)
	}
	p.Admit(key, size, tick)
	return p.Contains(key)
}

// Lookup runs the full pipeline for one request: policy lookup, and on
// a miss the admission decision and insertion. With Instruments
// attached, a sampled subset of requests is timed into the lookup
// latency histogram; the untimed majority (and every request when no
// instruments are attached) runs the branch with no clock reads.
func (e *Engine) Lookup(key uint64, size int64, tick int, feat []float64) Outcome {
	if ins := e.inst.Load(); ins != nil && uint64(tick)&ins.mask == 0 {
		start := ins.clock.Now()
		out := e.lookup(key, size, tick, feat)
		ins.Lookup.Record(int64(ins.clock.Now().Sub(start)))
		return out
	}
	if e.flash.Load() != nil {
		return e.lookup(key, size, tick, feat)
	}
	// Without a store, get and offer run with no frame between them and
	// Lookup: going through lookup cost engine-proposal a few per cent.
	if e.get(key, size, tick, e.policy, nil) {
		return Outcome{Hit: true}
	}
	return e.offer(key, size, tick, feat, e.policy, nil)
}

// lookup is Lookup without the timing: with a store attached, the whole
// request runs under one acquisition of mu.
func (e *Engine) lookup(key uint64, size int64, tick int, feat []float64) Outcome {
	p, fs := e.policy, (*flash.Store)(nil)
	if e.flash.Load() != nil {
		e.mu.Lock()
		defer e.mu.Unlock()
		p, fs = e.owned()
	}
	if e.get(key, size, tick, p, fs) {
		return Outcome{Hit: true}
	}
	return e.offer(key, size, tick, feat, p, fs)
}

// WithFlash runs fn with the policy and flash store this shard's
// requests drive, under the shard lock when a store is attached: the
// way to read or change a flash shard's policy or store while it
// serves, since neither takes a lock of its own there. fn then gets the
// policy's unlocked view and the store. Without a store fn gets the
// policy and nil and runs without the lock (a cache.Sharded policy
// locks per stripe). fn must not call back into the engine.
func (e *Engine) WithFlash(fn func(p cache.Policy, fs *flash.Store)) {
	if e.flash.Load() == nil {
		fn(e.policy, nil)
		return
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	fn(e.owned())
}

// RangeResidents walks the policy's residents as cache.Ranger does; it
// walks nothing when cache.AsRanger refuses the policy, which callers
// check first. With a store attached the walk holds the shard lock one
// policy stripe at a time, so it stalls requests no longer than one
// stripe's walk; a policy that is not a cache.Sharded is one stripe.
func (e *Engine) RangeResidents(fn func(key uint64, size int64) bool) {
	r, ok := cache.AsRanger(e.policy)
	if !ok {
		return
	}
	if u, ok := e.own.(*cache.Unlocked); ok && e.flash.Load() != nil {
		u.RangeUnder(&e.mu, fn)
		return
	}
	e.WithFlash(func(cache.Policy, *flash.Store) { r.Range(fn) })
}

// Snapshot returns the current counters: the engine-owned rows of
// Counters from the atomics, then the flash mirrors from the attached
// store. A flash shard reads both under its lock, so the snapshot is
// one atomic cut of the shard.
func (e *Engine) Snapshot() Metrics {
	var m Metrics
	e.WithFlash(func(_ cache.Policy, fs *flash.Store) {
		for i := range e.c {
			*Counters[i].Field(&m) = e.c[i].Load()
		}
		if fs == nil {
			return
		}
		st := fs.Stats()
		m.FlashHostBytes = st.HostBytes
		m.FlashGCBytes = st.GCBytes
		m.FlashErases = st.Erases
		m.FlashReadErrors = st.ReadErrors
		m.FlashCorruptExtents = st.CorruptExtents
		m.FlashRetiredBlocks = st.RetiredBlocks
	})
	return m
}
