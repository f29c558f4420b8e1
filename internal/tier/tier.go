// Package tier models the paper's deployment architecture (§2.1,
// Figure 1): a distributed photo download path with two SSD cache
// layers between the user and the backend store —
//
//	user -> Outside Cache (OC, close to users, latency-oriented)
//	     -> Datacenter Cache (DC, traffic-oriented)
//	     -> backend HDD storage
//
// Each layer can run its own admission filter (admit-all, the trained
// classifier, or the oracle), with the one-time-access criteria solved
// per layer from that layer's capacity. The classifier variant trains
// one cost-sensitive tree per layer on the first day's sampled records
// (a single offline bootstrap; the single-layer simulator in
// internal/sim is the one that exercises daily retraining).
//
// NewAdmission (admission.go) is the one admission constructor: the
// simulator behind the paper's figures and BuildLayer behind the daemon
// both solve M, bootstrap the tree and build the filter through it.
package tier

import (
	"fmt"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/trace"
)

// FilterKind selects a layer's admission behaviour.
type FilterKind int

// Admission kinds.
const (
	// AdmitAll is the traditional no-filter layer.
	AdmitAll FilterKind = iota
	// Classifier uses the paper's tree + history table.
	Classifier
	// Oracle uses perfect future knowledge.
	Oracle
	// Doorkeeper uses the non-ML frequency baseline (bloom doorkeeper +
	// decayed count-min sketch, "admit on re-access").
	Doorkeeper
)

// String names the kind.
func (k FilterKind) String() string {
	switch k {
	case Classifier:
		return "classifier"
	case Oracle:
		return "oracle"
	case Doorkeeper:
		return "doorkeeper"
	default:
		return "admit-all"
	}
}

// LayerConfig configures one cache layer.
type LayerConfig struct {
	// Policy is a cache.Names() replacement policy.
	Policy string
	// CacheBytes is the layer capacity.
	CacheBytes int64
	// Filter is the layer's admission behaviour.
	Filter FilterKind
	// Shards, when >= 1, splits the policy into that many stripes behind
	// a lock-per-stripe front (cache.Sharded), making the layer's Engine
	// safe for concurrent Lookup — the configuration a network cache
	// server deploys, even at one stripe. 0 keeps the bare
	// single-threaded policy, for a caller that drives the layer from
	// one goroutine.
	Shards int
	// EngineShards, when > 1, builds that many fully independent
	// engines — each owning 1/N of the capacity with its own policy,
	// admission filter, and history table — routed by a seeded hash of
	// the key (engine.ShardedEngine, exposed as Layer.Server). The layer's
	// Shards cache-shard budget is split across them, but every engine
	// shard's policy is lock-protected regardless, since requests for
	// different keys land on the same engine shard concurrently. 0 or 1
	// builds the classic single Engine.
	EngineShards int
	// Breaker, when set on a Classifier layer, puts an engine.Breaker
	// configured from it around each engine shard's classifier
	// admission, so a failing model degrades that shard's admission and
	// never its requests. Other filter kinds build no breaker.
	Breaker *engine.BreakerConfig
	// DoorkeeperFallback gives each shard's breaker its own doorkeeper
	// fallback, built like a Doorkeeper layer's filter at the shard's
	// capacity, in place of Breaker.Fallback.
	DoorkeeperFallback bool
}

// Latency models the three-hop read path in microseconds.
type Latency struct {
	// QueryUs is one cache index lookup.
	QueryUs float64
	// ClassifyUs is one classification-system consultation.
	ClassifyUs float64
	// SSDReadUs is one SSD photo read (either layer).
	SSDReadUs float64
	// OCToDCUs is the network hop from an OC server to the DC.
	OCToDCUs float64
	// HDDReadUs is the backend read.
	HDDReadUs float64
}

// DefaultLatency extends the paper's Eq. 3-6 constants with a 1 ms
// OC-to-DC wide-area hop.
func DefaultLatency() Latency {
	return Latency{QueryUs: 1, ClassifyUs: 0.4, SSDReadUs: 100, OCToDCUs: 1000, HDDReadUs: 3000}
}

// Config is a full two-layer simulation.
type Config struct {
	OC LayerConfig
	DC LayerConfig
	// Latency defaults to DefaultLatency when zero.
	Latency Latency
	// CostV is the classifier cost-matrix penalty (0 = Table 4 rule on
	// each layer's capacity).
	CostV float64
	// SamplesPerMinute is the bootstrap sampling rate (0 = 100).
	SamplesPerMinute int
	// HitRateEstimate is the h of each layer's criteria solve (0 =
	// measure with an LRU pass over the trace's first
	// labeling.HitRateSampleRequests requests, as the simulator does).
	HitRateEstimate float64
	// Seed drives training randomness.
	Seed uint64
	// DisableHistoryTable runs classifier layers without rectification
	// (the §4.4.2 ablation).
	DisableHistoryTable bool
}

// Result is the two-layer outcome.
type Result struct {
	Requests int

	OCHits       int64
	DCHits       int64
	BackendReads int64
	OCByteHits   int64
	DCByteHits   int64

	OCWrites      int64
	OCWriteBytes  int64
	DCWrites      int64
	DCWriteBytes  int64
	OCBypassed    int64
	DCBypassed    int64
	TotalBytes    int64
	MeanLatencyUs float64

	OCCriteria labeling.Criteria
	DCCriteria labeling.Criteria
}

// OCHitRate is the user-facing first-hop hit rate.
func (r *Result) OCHitRate() float64 { return frac(r.OCHits, int64(r.Requests)) }

// DCHitRate is the DC hit rate over the OC miss stream.
func (r *Result) DCHitRate() float64 { return frac(r.DCHits, int64(r.Requests)-r.OCHits) }

// CombinedHitRate is the fraction of requests served from either cache
// layer (the paper's "reduce the traffic burden of the backend").
func (r *Result) CombinedHitRate() float64 {
	return frac(r.OCHits+r.DCHits, int64(r.Requests))
}

// CombinedByteHitRate is the byte-weighted combined hit rate: the
// fraction of requested bytes that never reached the backend.
func (r *Result) CombinedByteHitRate() float64 {
	return frac(r.OCByteHits+r.DCByteHits, r.TotalBytes)
}

func frac(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Layer is one assembled cache layer: the serving Engine (policy +
// admission filter + counters) plus the criteria it was solved for.
// It is the unit a cache server deploys — Simulate drives two of them.
type Layer struct {
	// Engine is the layer's admission pipeline when EngineShards <= 1;
	// nil for an engine-sharded layer (use Server, which is always set).
	Engine *engine.Engine
	// Server is the layer's serving interface: the Engine itself, or
	// the ShardedEngine routing over the engine shards.
	Server engine.Server
	// Criteria is the layer's solved one-time-access criteria (zero
	// value for AdmitAll layers, which solve none).
	Criteria labeling.Criteria
	// Kind is the layer's admission behaviour.
	Kind FilterKind
}

// classifyCost returns the per-decision latency the layer's filter adds
// to the read path (Eq. 6's t_classify; zero for admit-all).
func (l *Layer) classifyCost(lat Latency) float64 {
	if l.Kind == AdmitAll {
		return 0
	}
	return lat.ClassifyUs
}

// offer consults the layer's admission pipeline for a missed object on
// the return path, charging the classification latency.
func (l *Layer) offer(key uint64, size int64, tick int, feat []float64, latencySum *float64, lat Latency) {
	*latencySum += l.classifyCost(lat)
	if l.Kind != Classifier {
		feat = nil
	}
	l.Engine.Offer(key, size, tick, feat)
}

// Simulate runs the trace through the two-layer hierarchy.
func Simulate(tr *trace.Trace, cfg Config) (*Result, error) {
	if (cfg.Latency == Latency{}) {
		cfg.Latency = DefaultLatency()
	}
	next := trace.BuildNextAccess(tr)

	oc, err := BuildLayer(tr, next, cfg, cfg.OC)
	if err != nil {
		return nil, fmt.Errorf("tier: OC: %w", err)
	}
	dc, err := BuildLayer(tr, next, cfg, cfg.DC)
	if err != nil {
		return nil, fmt.Errorf("tier: DC: %w", err)
	}

	res := &Result{
		Requests:   len(tr.Requests),
		OCCriteria: oc.Criteria,
		DCCriteria: dc.Criteria,
	}
	needFeatures := oc.Kind == Classifier || dc.Kind == Classifier
	var ex *features.Extractor
	if needFeatures {
		ex = features.NewExtractor(tr)
	}
	cols := features.PaperSelected()
	var feat [features.NumFeatures]float64
	lat := cfg.Latency
	var latencySum float64

	for i := range tr.Requests {
		req := &tr.Requests[i]
		key := uint64(req.Photo)
		size := tr.Photos[req.Photo].Size
		var proj []float64
		if ex != nil {
			ex.NextInto(i, feat[:])
			proj = Project(feat[:], cols)
		}

		// Hop 1: the outside cache.
		if oc.Engine.Get(key, size, i) {
			latencySum += lat.QueryUs + lat.SSDReadUs
			continue
		}

		// Hop 2: the datacenter cache.
		dcCost := lat.QueryUs + lat.OCToDCUs + lat.QueryUs
		if dc.Engine.Get(key, size, i) {
			latencySum += dcCost + lat.SSDReadUs
			// The photo flows back through the OC, which may cache it.
			oc.offer(key, size, i, proj, &latencySum, lat)
			continue
		}

		// Hop 3: the backend.
		latencySum += dcCost + lat.HDDReadUs
		dc.offer(key, size, i, proj, &latencySum, lat)
		oc.offer(key, size, i, proj, &latencySum, lat)
	}

	ocM, dcM := oc.Engine.Snapshot(), dc.Engine.Snapshot()
	res.TotalBytes = ocM.TotalBytes
	res.OCHits, res.OCByteHits = ocM.Hits, ocM.HitBytes
	res.DCHits, res.DCByteHits = dcM.Hits, dcM.HitBytes
	res.BackendReads = dcM.Misses
	res.OCWrites, res.OCWriteBytes, res.OCBypassed = ocM.Writes, ocM.WriteBytes, ocM.Bypassed
	res.DCWrites, res.DCWriteBytes, res.DCBypassed = dcM.Writes, dcM.WriteBytes, dcM.Bypassed
	if res.Requests > 0 {
		res.MeanLatencyUs = latencySum / float64(res.Requests)
	}
	return res, nil
}

// BuildLayer assembles one serving-ready layer from a trace: the
// replacement policy, the layer's admission (NewAdmission), and the
// Engine (or, with EngineShards > 1, the hash-routed independent engines)
// composing them. Exported so a cache server can deploy a single layer
// without running the two-tier simulation.
//
// The criteria and the bootstrap classifier are solved ONCE, from the
// layer's total capacity: M is a property of the whole layer's request
// stream and cache size, so every engine shard filters under the same
// criteria and (initially) the same tree, while owning its own history
// table and policy.
func BuildLayer(tr *trace.Trace, next []int, cfg Config, lc LayerConfig) (*Layer, error) {
	nshards := lc.EngineShards
	if nshards < 1 {
		nshards = 1
	}
	adm, err := NewAdmission(tr, next, Spec{
		Kind:                lc.Filter,
		Policy:              lc.Policy,
		CacheBytes:          lc.CacheBytes,
		HitRate:             cfg.HitRateEstimate,
		CostV:               cfg.CostV,
		SamplesPerMinute:    cfg.SamplesPerMinute,
		DisableHistoryTable: cfg.DisableHistoryTable,
	})
	if err != nil {
		return nil, err
	}
	l := &Layer{Kind: lc.Filter, Criteria: adm.Criteria}

	// buildShard assembles one engine at the given slice of the layer's
	// capacity and table budget: a fresh policy, the admission's filter,
	// and on a classifier layer the breaker around it.
	buildShard := func(capacity int64, cacheShards int, tableCap int) (*engine.Engine, error) {
		p, err := buildPolicy(lc.Policy, capacity, cacheShards, next)
		if err != nil {
			return nil, err
		}
		filter, err := adm.Filter(capacity, tableCap)
		if err != nil {
			return nil, err
		}
		if lc.Filter == Classifier && lc.Breaker != nil {
			bc := *lc.Breaker
			if lc.DoorkeeperFallback {
				if bc.Fallback, err = adm.doorkeeper(capacity); err != nil {
					return nil, err
				}
			}
			if filter, err = engine.NewBreaker(filter, bc); err != nil {
				return nil, err
			}
		}
		return engine.New(p, filter)
	}

	if nshards == 1 {
		eng, err := buildShard(lc.CacheBytes, lc.Shards, core.TableCapacity(l.Criteria))
		if err != nil {
			return nil, err
		}
		l.Engine, l.Server = eng, eng
		return l, nil
	}

	// Engine-sharded: the capacity, inner cache-shard budget, and
	// history-table budget split evenly; the routing seed is the layer
	// seed, so an identically configured restart routes identically.
	per := lc.CacheBytes / int64(nshards)
	if per < 1 {
		per = 1
	}
	inner := lc.Shards / nshards
	if inner < 1 {
		inner = 1
	}
	tableCap := core.TableCapacity(l.Criteria) / nshards
	if tableCap < 1 {
		tableCap = 1
	}
	shards := make([]*engine.Engine, nshards)
	for i := range shards {
		shards[i], err = buildShard(per, inner, tableCap)
		if err != nil {
			return nil, err
		}
	}
	se, err := engine.NewShardedEngine(shards, cfg.Seed)
	if err != nil {
		return nil, err
	}
	l.Server = se
	return l, nil
}

// buildPolicy constructs one replacement policy, wrapping it in the
// lock-per-shard concurrent front when cacheShards asks for at least
// one stripe. Engine shards always get one: their stripe budget is
// rounded up to 1.
func buildPolicy(policy string, capacity int64, cacheShards int, next []int) (cache.Policy, error) {
	if cacheShards < 1 {
		return cache.New(policy, capacity, next)
	}
	var shardErr error
	p, err := cache.NewSharded(capacity, cacheShards, func(shardCapacity int64) cache.Policy {
		sp, err := cache.New(policy, shardCapacity, next)
		if err != nil {
			shardErr = err
			return nil
		}
		return sp
	})
	if shardErr != nil {
		return nil, shardErr
	}
	return p, err
}
