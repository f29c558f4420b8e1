package engine

import (
	"fmt"
	"math/bits"
	"sync/atomic"
)

// Server is the serving-stack abstraction over one or many engines: the
// surface internal/server, the snapshot subsystem, and the daemon drive.
// *Engine satisfies it directly (a fleet of one); ShardedEngine routes
// keys by a seeded hash to N fully independent engines.
//
// Tick numbering is global to the Server, never per shard: reaccess
// distances (the criteria's M) are defined over the total request
// stream, so the history tables of every shard must compare ticks drawn
// from one counter.
//
// Lookup and Offer read feat only while they run and keep no reference
// to it (a filter that wants the vector later copies it), so a caller
// may decode every request's features into one reused buffer, as the
// daemon's connection loop does.
type Server interface {
	// Lookup runs the full pipeline for one request: policy lookup, and
	// on a miss the admission decision and insertion.
	Lookup(key uint64, size int64, tick int, feat []float64) Outcome
	// Get consults the owning shard's policy, updating hit/miss counters.
	Get(key uint64, size int64, tick int) bool
	// Offer runs the owning shard's admission filter for a missed object.
	Offer(key uint64, size int64, tick int, feat []float64) Outcome
	// Snapshot returns the counters aggregated across all shards.
	Snapshot() Metrics
	// NextTick returns a fresh tick from the global counter.
	NextTick() int
	// Tick returns the next tick NextTick would hand out.
	Tick() int64
	// ResumeTick fast-forwards the global tick counter (see
	// Engine.ResumeTick).
	ResumeTick(t int64)
	// Shards enumerates the independent engines, in shard order. A plain
	// *Engine returns itself as the only element.
	Shards() []*Engine
	// ShardFor returns the index (into Shards) of the shard owning key.
	ShardFor(key uint64) int
}

var (
	_ Server = (*Engine)(nil)
	_ Server = (*ShardedEngine)(nil)
)

// Shards implements Server: a plain Engine is a fleet of one.
func (e *Engine) Shards() []*Engine { return []*Engine{e} }

// ShardFor implements Server: a plain Engine owns every key.
func (e *Engine) ShardFor(key uint64) int { return 0 }

// ShardedEngine routes requests by a seeded hash to N fully independent
// engines. Each shard owns its own policy, admission filter, history
// table, and (when the daemon wraps one) circuit breaker, so a degraded
// classifier or a contended lock on one shard never stalls the others.
// Only the tick counter is shared — see Server.
//
// It is safe for concurrent use when every shard engine is (the usual
// composition: cache.NewSharded policies and the thread-safe filters).
type ShardedEngine struct {
	// shards and salt are read by every request and never written after
	// NewShardedEngine.
	shards []*Engine
	salt   uint64
	// tick is the one field every request writes. The padding gives it
	// a cache line of its own, so its writes do not evict shards and
	// salt from the other CPUs' caches: the first pad fills the line
	// after the slice header (24 bytes) and salt (8).
	_    [cacheLine - 32]byte
	tick atomic.Int64
	_    [cacheLine - 8]byte
}

// cacheLine is the cache line size of the amd64 and arm64 CPUs the
// daemon runs on.
const cacheLine = 64

// NewShardedEngine assembles a sharded engine over the given shard
// engines. seed salts the routing hash; the same seed and shard count
// always route identically, which restarts rely on.
func NewShardedEngine(shards []*Engine, seed uint64) (*ShardedEngine, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("engine: sharded engine needs at least one shard")
	}
	for i, sh := range shards {
		if sh == nil {
			return nil, fmt.Errorf("engine: nil shard %d", i)
		}
	}
	return &ShardedEngine{shards: shards, salt: mix(seed)}, nil
}

// Shards implements Server.
func (s *ShardedEngine) Shards() []*Engine { return s.shards }

// ShardFor implements Server: the high word of the salted key hash
// times the shard count (Lemire's multiply-shift range reduction), so
// each shard owns an equal slice of the hash range. A one-shard engine
// skips the hash: the route is forced, and the fast path keeps the
// 1-shard composition at single-Engine cost on the serving hot path.
func (s *ShardedEngine) ShardFor(key uint64) int {
	if len(s.shards) == 1 {
		return 0
	}
	hi, _ := bits.Mul64(mix(key^s.salt), uint64(len(s.shards)))
	return int(hi)
}

// mix is the splitmix64 finalizer: every key bit reaches every output
// bit, so sequential and strided keys spread evenly.
func mix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// NextTick implements Server over the global counter.
func (s *ShardedEngine) NextTick() int { return nextTick(&s.tick) }

// Tick implements Server.
func (s *ShardedEngine) Tick() int64 { return s.tick.Load() }

// ResumeTick implements Server.
func (s *ShardedEngine) ResumeTick(t int64) { s.tick.Store(t) }

// Get implements Server, routing to the owning shard.
func (s *ShardedEngine) Get(key uint64, size int64, tick int) bool {
	return s.shards[s.ShardFor(key)].Get(key, size, tick)
}

// Offer implements Server, routing to the owning shard.
func (s *ShardedEngine) Offer(key uint64, size int64, tick int, feat []float64) Outcome {
	return s.shards[s.ShardFor(key)].Offer(key, size, tick, feat)
}

// Lookup implements Server, routing to the owning shard.
func (s *ShardedEngine) Lookup(key uint64, size int64, tick int, feat []float64) Outcome {
	return s.shards[s.ShardFor(key)].Lookup(key, size, tick, feat)
}

// Snapshot implements Server: the field-wise sum of every shard's
// counters. Summation lives in Metrics.Add, which loops over Counters,
// so no field skips aggregation.
func (s *ShardedEngine) Snapshot() Metrics {
	var m Metrics
	for _, sh := range s.shards {
		m = m.Add(sh.Snapshot())
	}
	return m
}
