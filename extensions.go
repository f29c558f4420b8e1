package otacache

// Extensions beyond the paper's core evaluation: the two-tier OC/DC
// deployment architecture of §2.1 (Figure 1), the SSD endurance model
// behind the paper's lifetime motivation (§1), a concurrent sharded
// cache front, and the online-learning alternative §4.4.3 mentions.

import (
	"io"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/ml/cart"
	"otacache/internal/obs"
	"otacache/internal/server"
	"otacache/internal/ssd"
	"otacache/internal/tier"
	"otacache/internal/trace"
)

// Serving engine (the Figure 4 pipeline behind one entry point).
type (
	// Engine is the thread-safe cache engine: a replacement policy and
	// an admission filter composed behind Lookup/Snapshot with atomic
	// metrics. The simulator, the two-tier hierarchy, and a concurrent
	// cache server all drive this same pipeline.
	Engine = engine.Engine
	// EngineOutcome describes one Engine lookup (hit, admission
	// decision, SSD write).
	EngineOutcome = engine.Outcome
	// EngineMetrics is a point-in-time snapshot of an Engine's
	// counters, with the paper's hit/write-rate accessors.
	EngineMetrics = engine.Metrics
	// EngineServer is the serving interface both a single Engine and a
	// ShardedEngine satisfy — everything downstream (daemon, snapshots,
	// replay) programs against it.
	EngineServer = engine.Server
	// ShardedEngine routes keys by a seeded hash to fully independent
	// Engines, one per shard, under one global tick stream.
	ShardedEngine = engine.ShardedEngine
	// ServingLayer is one assembled cache layer: an Engine plus the
	// criteria it was solved for — the unit a tiered deployment runs
	// per OC/DC node.
	ServingLayer = tier.Layer
)

// NewEngine composes a policy and an admission filter into the serving
// pipeline. filter == nil admits every miss (the traditional cache).
// The Engine is safe for concurrent use when its parts are: wrap the
// policy with NewShardedPolicy and use any filter but the online
// classifier.
func NewEngine(policy Policy, filter Filter) (*Engine, error) {
	return engine.New(policy, filter)
}

// BuildServingLayer assembles one serving-ready cache layer from a
// trace: policy, per-layer criteria, admission filter, and the Engine
// composing them (next is the trace's next-access index). Set
// lc.EngineShards > 1 to get a sharded layer (Layer.Server carries the
// resulting ShardedEngine; Layer.Engine is nil in that case).
func BuildServingLayer(t *Trace, next []int, cfg TierConfig, lc TierLayer) (*ServingLayer, error) {
	return tier.BuildLayer(t, next, cfg, lc)
}

// NewShardedEngine composes already-built engines into a shard-routed
// server: each engine owns its policy, admission filter, and history;
// keys are routed by a hash salted with seed, each shard owning an
// equal share of the hash range. A one-shard ShardedEngine behaves
// exactly like its single Engine.
func NewShardedEngine(shards []*Engine, seed uint64) (*ShardedEngine, error) {
	return engine.NewShardedEngine(shards, seed)
}

// Two-tier hierarchy (OC -> DC -> backend).
type (
	// TierConfig is a full two-layer simulation configuration.
	TierConfig = tier.Config
	// TierLayer configures one cache layer.
	TierLayer = tier.LayerConfig
	// TierResult is the two-layer outcome.
	TierResult = tier.Result
	// TierLatency models the three-hop read path.
	TierLatency = tier.Latency
	// TierFilter selects a layer's admission behaviour.
	TierFilter = tier.FilterKind
)

// Tier admission kinds.
const (
	TierAdmitAll   = tier.AdmitAll
	TierClassifier = tier.Classifier
	TierOracle     = tier.Oracle
	TierDoorkeeper = tier.Doorkeeper
)

// SimulateTiers runs a trace through the two-layer hierarchy of the
// paper's Figure 1.
func SimulateTiers(t *Trace, cfg TierConfig) (*TierResult, error) {
	return tier.Simulate(t, cfg)
}

// DefaultTierLatency returns the Eq. 3-6 constants plus a 1 ms OC->DC
// network hop.
func DefaultTierLatency() TierLatency { return tier.DefaultLatency() }

// Network cache daemon (the wire form of the serving engine; see
// cmd/otacached and cmd/otaload for the packaged binaries).
type (
	// CacheServer exposes an Engine over HTTP: object lookup/offer,
	// /metrics, and admin endpoints for classifier hot-swap and
	// on-demand retraining.
	CacheServer = server.Server
	// CacheServerConfig bounds the server (connection cap, per-request
	// timeout, expected feature arity).
	CacheServerConfig = server.Config
	// CacheClient speaks the daemon's wire protocol, including trace
	// replay at a target QPS.
	CacheClient = server.Client
	// ReplayOptions configures one CacheClient.Replay load run.
	ReplayOptions = server.ReplayOptions
	// ReplayReport is the outcome: throughput, latency percentiles, and
	// the server-side counter movement.
	ReplayReport = server.ReplayReport
	// LiveRetrainer labels live traffic by observed reaccess and
	// retrains the daemon's classifier on the paper's daily schedule.
	LiveRetrainer = server.Retrainer
)

// NewCacheServer wraps a serving engine — a single *Engine or a
// *ShardedEngine — in the HTTP daemon. Each engine's policy must be
// thread-safe (NewShardedPolicy).
func NewCacheServer(eng EngineServer, cfg CacheServerConfig) *CacheServer {
	return server.New(eng, cfg)
}

// NewCacheClient builds a client for a daemon at base (e.g.
// "http://127.0.0.1:8344") sized for the given worker concurrency.
func NewCacheClient(base string, workers int) *CacheClient {
	return server.NewClient(base, workers)
}

// SSD endurance.
type (
	// Endurance is an SSD wear budget (capacity, P/E cycles, WAF).
	Endurance = ssd.Endurance
	// EnduranceReport compares lifetimes at two write rates.
	EnduranceReport = ssd.Report
)

// DefaultTLC returns a typical TLC cache-device endurance profile.
// Override its guessed WAF with Endurance.WithMeasuredWAF when a flash
// store (AttachFlashStore) has measured the real one.
func DefaultTLC(capacityBytes int64) Endurance { return ssd.DefaultTLC(capacityBytes) }

// Flash device model (measured write amplification).
type (
	// FlashStore is a log-structured flash store: cached payloads in
	// erase-block segments with greedy GC, reporting measured WAF and
	// per-block erase counts. It is not safe for concurrent use; a
	// serving engine calls it only under its shard lock.
	FlashStore = flash.Store
	// FlashStats is one store's wear accounting (host vs GC bytes,
	// erases, live bytes); FlashStats.WAF() is the measured
	// amplification to feed Endurance.WithMeasuredWAF.
	FlashStats = flash.Stats
)

// AttachFlashStore models the cache device under a serving engine: one
// log-structured store per shard, sized to the shard's policy capacity
// times overprovision (> 1), with erase blocks of segmentSize bytes.
// Every admitted miss is appended to the owning shard's log, the
// policy's evictions invalidate their extents as they happen, and
// EngineMetrics grows the Flash* wear counters. Call it after the engine is fully assembled and
// before restoring any snapshot.
func AttachFlashStore(srv EngineServer, segmentSize int64, overprovision float64) error {
	return engine.AttachFlash(srv, segmentSize, overprovision)
}

// LifetimeExtension converts a write-rate change into a lifetime
// factor (the paper's 79% write cut is ~4.8x).
func LifetimeExtension(beforeBytesPerDay, afterBytesPerDay float64) float64 {
	return ssd.ExtensionFactor(beforeBytesPerDay, afterBytesPerDay)
}

// WriteDensityRatio reproduces the paper's §1 cache-vs-backend write
// density example (1 TB SSD over 20 TB HDD -> 20:1).
func WriteDensityRatio(cacheBytes, backendBytes int64) float64 {
	return ssd.WriteDensityRatio(cacheBytes, backendBytes)
}

// Concurrency.

// NewShardedPolicy wraps single-threaded policies into a thread-safe,
// lock-per-shard cache front. factory builds one shard of the given
// byte capacity.
func NewShardedPolicy(capacity int64, shards int, factory func(shardCapacity int64) Policy) (Policy, error) {
	return cache.NewSharded(capacity, shards, factory)
}

// Non-ML admission baseline.

// FrequencyAdmission is the frequency-doorkeeper admission baseline
// (bloom doorkeeper + decayed count-min sketch, "admit on re-access").
type FrequencyAdmission = core.FrequencyAdmission

// NewFrequencyAdmission builds the baseline filter; width sizes the
// sketch (roughly the hot-object count), minFreq is the admission bar
// (<=0 means admit on the second appearance). Also available as
// ModeDoorkeeper in the simulator.
func NewFrequencyAdmission(width, minFreq int) (*FrequencyAdmission, error) {
	return core.NewFrequencyAdmission(width, minFreq)
}

// Online learning (the §4.4.3 alternative).

// OnlineClassifier is an incrementally updated logistic classifier;
// call Update with labelled observations as they become known.
type OnlineClassifier = core.OnlineLogit

// NewOnlineClassifier creates a cold online model over numFeatures
// features (learningRate <= 0 and l2 < 0 pick defaults).
func NewOnlineClassifier(numFeatures int, learningRate, l2 float64) (*OnlineClassifier, error) {
	return core.NewOnlineLogit(numFeatures, learningRate, l2)
}

// Model persistence.

// DecisionTree is the concrete trained CART model (TrainTree returns
// one behind the Classifier interface).
type DecisionTree = cart.Tree

// SaveTree persists a trained decision tree for deployment.
func SaveTree(t *DecisionTree, path string) error { return t.Save(path) }

// LoadTree loads a tree saved by SaveTree.
func LoadTree(path string) (*DecisionTree, error) { return cart.Load(path) }

// Observability (the daemon's measurement plane: GET /metrics, the
// latency histograms behind it, and the decision-trace ring served by
// GET /admin/trace).
type (
	// LatencyHistogram is a lock-free, mergeable, log-bucketed latency
	// histogram: zero allocations and no locks on Record, ~25% bucket
	// resolution, snapshots and quantiles while recorders run.
	LatencyHistogram = obs.Histogram
	// LatencySnapshot is one histogram's consistent point-in-time view
	// (Quantile, Add/Sub for intervals).
	LatencySnapshot = obs.HistogramSnapshot
	// EngineInstruments carries a serving engine's latency measurement
	// plane (sampled Lookup timing, per-decision classifier timing);
	// attach with Engine.SetInstruments or let NewCacheServer wire it.
	EngineInstruments = engine.Instruments
	// DecisionTraceEvent is one sampled per-request decision record:
	// key, shard, admission verdict, breaker state, flash outcome, and
	// stage timings (GET /admin/trace, binary form via
	// obs.DecodeEvents).
	DecisionTraceEvent = obs.TraceEvent
	// MetricSample is one parsed /metrics sample (name, labels, value).
	MetricSample = obs.Sample
)

// NewLatencyHistogram builds an empty histogram; Record takes
// nanoseconds (or Observe a time.Duration).
func NewLatencyHistogram() *LatencyHistogram { return obs.NewHistogram() }

// ParseMetricsText parses a Prometheus text exposition (a /metrics
// scrape) into samples; CacheClient.Metrics scrapes and parses in one
// call.
func ParseMetricsText(r io.Reader) ([]MetricSample, error) { return obs.ParseText(r) }

// MetricsBucketQuantile estimates a quantile from a scraped
// histogram's cumulative buckets (parallel le-bound and count slices),
// the standard histogram_quantile computation.
func MetricsBucketQuantile(les, cums []float64, q float64) float64 {
	return obs.BucketQuantile(les, cums, q)
}

// Trace persistence.

// SaveTrace writes a trace to a file in the binary trace format.
func SaveTrace(t *Trace, path string) error { return t.Save(path) }

// LoadTrace reads a trace written by SaveTrace (or cmd/tracegen).
func LoadTrace(path string) (*Trace, error) { return trace.Load(path) }
