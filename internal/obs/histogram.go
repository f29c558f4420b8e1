// Package obs is the measurement plane of the serving stack: zero-
// allocation latency histograms, request sampling, a lock-free
// decision-trace ring buffer, and the Prometheus text exposition the
// daemon's /metrics endpoint speaks.
//
// The paper's headline claims are rate/latency trade-offs (file and
// byte hit rate, write rate, modelled response time), yet counters
// alone cannot show a latency distribution shifting under admission
// changes, breaker trips, or flash GC pressure. This package makes the
// serving stack observable in flight without perturbing it: every
// record-path operation is a handful of atomic adds on sharded cache
// lines — no locks, no allocations, no wall-clock reads of its own
// (callers time through their injected clock seam, so the detclock
// analyzer's determinism guarantee holds).
//
// The pieces:
//
//   - Histogram: a log-bucketed latency histogram with per-shard atomic
//     counters. Record/Observe is wait-free and allocation-free;
//     Snapshot folds the shards into one immutable view; Quantile has a
//     bounded relative error set by the bucket scheme (≤ 25%, four
//     sub-buckets per power of two). Merge combines the per-engine-
//     shard histograms into fleet aggregates.
//   - Sampler: a sharded 1-in-N request sampler so timing overhead on a
//     ~200ns hot path stays within the benchmarked budget.
//   - Ring: the sampled per-request decision trace (key, shard,
//     admission verdict, breaker state, stage timings) with a binary
//     wire codec, served from GET /admin/trace.
//   - TextWriter/ParseText/EscapeLabel: the Prometheus text exposition
//     format for GET /metrics, and the parser the golden tests and
//     otaload's scrape-side reporting use.
package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
	"unsafe"
)

// Bucket-scheme constants. Values (latencies in nanoseconds) land in
// log-spaced buckets: values below subCount are exact, and every power
// of two above is split into subCount sub-buckets, so a bucket's width
// is at most 1/subCount of its lower bound — the ≤ 25% relative error
// Quantile inherits.
const (
	subBits  = 2
	subCount = 1 << subBits // sub-buckets per power of two

	// NumBuckets spans the whole non-negative int64 range: index 251 is
	// the last bucket the mapping can produce (e = 62); the tail is
	// headroom so the array size is a round power of two.
	NumBuckets = 256

	// histShards is how many cache-line-sharded counter rows a histogram
	// carries. Writers pick a row from their stack address, so parallel
	// recorders mostly touch distinct lines.
	histShardBits = 3
	histShards    = 1 << histShardBits
)

// bucketIndex maps a value to its bucket. Negative values clamp to
// bucket zero so Count always equals the number of records.
func bucketIndex(v int64) int {
	if v < subCount {
		if v < 0 {
			return 0
		}
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 1 // floor(log2 v), >= subBits
	return ((e - subBits + 1) << subBits) | int((uint64(v)>>(uint(e)-subBits))&(subCount-1))
}

// BucketBounds returns bucket i's inclusive value range [lo, hi].
func BucketBounds(i int) (lo, hi int64) {
	if i < subCount {
		return int64(i), int64(i)
	}
	e := uint(i>>subBits) + subBits - 1
	sub := int64(i & (subCount - 1))
	width := int64(1) << (e - subBits)
	lo = int64(1)<<e + sub*width
	return lo, lo + width - 1
}

// shardRow is one recorder shard: a counter per bucket plus the shard's
// share of the running count and sum. Rows are padded so two shards
// never share a cache line.
type shardRow struct {
	counts [NumBuckets]atomic.Uint64
	count  atomic.Uint64
	sum    atomic.Int64
	_      [48]byte
}

// Histogram is a mergeable log-bucketed histogram of int64 values
// (latencies in nanoseconds by convention). The record path is wait-free
// and allocation-free: one bucket-index computation and three atomic
// adds on a shard row chosen from the caller's stack address, so
// concurrent recorders on different goroutines mostly touch distinct
// cache lines. The zero value is NOT ready; use NewHistogram.
type Histogram struct {
	shards []shardRow
}

// NewHistogram builds an empty histogram.
func NewHistogram() *Histogram {
	return &Histogram{shards: make([]shardRow, histShards)}
}

// recorderShard picks a counter row for the calling goroutine. The
// address of a stack variable is stable within a goroutine between
// stack growths and distinct across goroutines, which is exactly the
// contention-spreading property per-CPU sharding wants — without any
// runtime-internal dependency. A Fibonacci hash mixes the address so
// stacks carved from adjacent arena chunks still spread across rows.
func recorderShard() uint64 {
	var b byte
	return uint64(uintptr(unsafe.Pointer(&b))) * 0x9e3779b97f4a7c15 >> (64 - histShardBits)
}

// Record adds one observation.
func (h *Histogram) Record(v int64) {
	row := &h.shards[recorderShard()]
	row.counts[bucketIndex(v)].Add(1)
	row.count.Add(1)
	if v > 0 {
		row.sum.Add(v)
	}
}

// Merge folds other's current counts into h. Recording a stream into
// one histogram and recording its partition across K histograms then
// merging them are value-identical (the property tests pin this).
func (h *Histogram) Merge(other *Histogram) {
	if other == nil {
		return
	}
	s := other.Snapshot()
	row := &h.shards[0]
	for i, c := range s.Counts {
		if c != 0 {
			row.counts[i].Add(c)
		}
	}
	row.count.Add(s.Count)
	row.sum.Add(s.Sum)
}

// Snapshot folds the shard rows into one immutable view. Under
// concurrent recording each counter is individually exact but the set
// is not a single atomic cut — the same contract engine.Metrics has.
func (h *Histogram) Snapshot() HistogramSnapshot {
	var s HistogramSnapshot
	for i := range h.shards {
		row := &h.shards[i]
		for b := range row.counts {
			s.Counts[b] += row.counts[b].Load()
		}
		s.Count += row.count.Load()
		s.Sum += row.sum.Load()
	}
	return s
}

// Quantile is Snapshot().Quantile — see HistogramSnapshot.Quantile.
func (h *Histogram) Quantile(q float64) float64 { s := h.Snapshot(); return s.Quantile(q) }

// HistogramSnapshot is a point-in-time view of a Histogram: per-bucket
// counts, the total observation count, and the sum of positive values
// (nanoseconds). The zero value is an empty histogram.
type HistogramSnapshot struct {
	Counts [NumBuckets]uint64
	Count  uint64
	Sum    int64
}

// Add returns the bucket-wise sum s + o.
func (s HistogramSnapshot) Add(o HistogramSnapshot) HistogramSnapshot {
	for i, c := range o.Counts {
		s.Counts[i] += c
	}
	s.Count += o.Count
	s.Sum += o.Sum
	return s
}

// Sub returns the bucket-wise delta s - o, for interval views over two
// scrapes of a cumulative histogram.
func (s HistogramSnapshot) Sub(o HistogramSnapshot) HistogramSnapshot {
	for i, c := range o.Counts {
		s.Counts[i] -= c
	}
	s.Count -= o.Count
	s.Sum -= o.Sum
	return s
}

// Quantile returns the q-quantile (q clamped to [0, 1]) as the midpoint
// of the bucket holding the rank-ceil(q·Count) observation, NaN when
// empty. The estimate is within the true quantile's bucket, so its
// relative error is bounded by the bucket scheme (≤ 25% above the exact
// small-value range, where it is exact).
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return math.NaN()
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for i, c := range s.Counts {
		cum += c
		if cum >= rank {
			lo, hi := BucketBounds(i)
			return float64(lo+hi) / 2
		}
	}
	lo, hi := BucketBounds(NumBuckets - 1)
	return float64(lo+hi) / 2
}

// MaxBucket returns the highest bucket index with a nonzero count, or
// -1 when empty — the exposition uses it to stop emitting empty tail
// buckets.
func (s HistogramSnapshot) MaxBucket() int {
	for i := NumBuckets - 1; i >= 0; i-- {
		if s.Counts[i] != 0 {
			return i
		}
	}
	return -1
}

// Sampler is a sharded 1-in-N sampler: Hit reports whether the calling
// request should pay for timing. The counters shard the same way the
// histogram rows do, so the fast path is one mostly-uncontended atomic
// add and a branch — cheap enough for a ~200ns serving path where two
// clock reads per request would not be.
type Sampler struct {
	every uint64
	ctrs  [histShards]struct {
		n atomic.Uint64
		_ [56]byte
	}
}

// NewSampler builds a sampler firing every n-th call per shard (n <= 1
// fires always).
func NewSampler(n int) *Sampler {
	if n < 1 {
		n = 1
	}
	return &Sampler{every: uint64(n)}
}

// Every returns the sampling period.
func (s *Sampler) Every() int { return int(s.every) }

// Hit reports whether this call is sampled. The shard counter counts
// up to the period and resets rather than taking `count % every`: the
// period is a variable, so the modulo is a hardware divide — tens of
// cycles on a path the overhead gate budgets in single nanoseconds.
// The reset is a plain store; two racing callers can at worst both
// fire once at a period boundary, a statistical over-sample the
// log-bucketed quantiles don't notice.
func (s *Sampler) Hit() bool {
	if s.every == 1 {
		return true
	}
	c := &s.ctrs[recorderShard()].n
	if c.Add(1) >= s.every {
		c.Store(0)
		return true
	}
	return false
}
