// Package stack assembles the daemon's serving stack from one Config:
// the engine shards with their breakers already around the
// classifier, then the flash stores (fault-drill devices included),
// then the scrub patrol. cmd/otacached binds its flags onto a Config
// and calls Build; the server tests call Build to serve what the
// daemon serves. The HTTP server, the retrainer and the snapshot
// restore stay with the caller, so this package does not import
// internal/server.
//
// TestDecisionDigest pins the decisions of the assembly: every
// outcome, the final counters and the resident set of three arms,
// folded into digests held in testdata/decisions.golden.
package stack

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"time"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/faults"
	"otacache/internal/flash"
	"otacache/internal/labeling"
	"otacache/internal/ml/cart"
	"otacache/internal/tier"
	"otacache/internal/trace"
)

// Config is the daemon's assembly, one field per otacached flag and
// named after it. The zero value is not usable; start from Defaults.
type Config struct {
	Policy string // -policy: a cache.Names() replacement policy
	Mode   string // -mode: original|proposal|ideal|doorkeeper

	Seed           uint64  // -seed: bootstrap training and the engine shards' routing salt
	Bytes          int64   // -bytes: capacity (0 = Frac of the trace footprint)
	Frac           float64 // -frac
	Shards         int     // -shards: policy stripes (0 = 2x GOMAXPROCS)
	EngineShards   int     // -engine-shards
	V              float64 // -v: cost-matrix v (0 = Table 4 rule)
	Samples        int     // -samples: training samples per minute
	NoHistoryTable bool    // -no-history-table
	Model          string  // -model: a tree saved by trainer -save

	BreakerFallback  string        // -breaker-fallback: admit-all|doorkeeper|off
	BreakerLatency   time.Duration // -breaker-latency
	BreakerThreshold int           // -breaker-threshold
	BreakerCooldown  time.Duration // -breaker-cooldown

	FlashSegmentSize   int64         // -flash-segment-size (0 = no flash layer)
	FlashOverprovision float64       // -flash-overprovision
	FlashSpareBlocks   int           // -flash-spare-blocks
	FlashScrubInterval time.Duration // -flash-scrub-interval

	FlashFaultReadEvery    uint64 // -flash-fault-read-every
	FlashFaultFlipEvery    uint64 // -flash-fault-flip-every
	FlashFaultProgramEvery uint64 // -flash-fault-program-every
	FlashFaultEraseEvery   uint64 // -flash-fault-erase-every
}

// Defaults returns otacached's flag defaults.
func Defaults() Config {
	return Config{
		Policy:             "lru",
		Mode:               "original",
		Seed:               42,
		Frac:               0.15,
		EngineShards:       1,
		Samples:            100,
		BreakerFallback:    "admit-all",
		BreakerThreshold:   3,
		BreakerCooldown:    time.Second,
		FlashOverprovision: 1.15,
	}
}

// modes maps -mode to the layer's admission behaviour.
var modes = map[string]tier.FilterKind{
	"original":   tier.AdmitAll,
	"proposal":   tier.Classifier,
	"ideal":      tier.Oracle,
	"doorkeeper": tier.Doorkeeper,
}

// Validate reports the first invalid flag, naming it. It needs no
// trace, so the daemon runs it before the bootstrap loads.
func (c *Config) Validate() error {
	if !slices.Contains(cache.Names(), c.Policy) {
		return fmt.Errorf("unknown -policy %q", c.Policy)
	}
	kind, ok := modes[c.Mode]
	if !ok {
		return fmt.Errorf("unknown mode %q", c.Mode)
	}
	switch c.BreakerFallback {
	case "admit-all", "doorkeeper", "off":
	default:
		return fmt.Errorf("unknown -breaker-fallback %q", c.BreakerFallback)
	}
	if c.Model != "" && kind != tier.Classifier {
		return fmt.Errorf("-model requires -mode proposal")
	}
	switch {
	case c.EngineShards < 1:
		return fmt.Errorf("-engine-shards must be >= 1, got %d", c.EngineShards)
	case c.Shards < 0:
		return fmt.Errorf("-shards must not be negative, got %d (0 = 2x GOMAXPROCS)", c.Shards)
	case c.Bytes < 0:
		return fmt.Errorf("-bytes must not be negative, got %d (0 sizes the cache by -frac)", c.Bytes)
	case c.Bytes == 0 && (!(c.Frac > 0) || math.IsInf(c.Frac, 1)):
		return fmt.Errorf("-frac must be positive and finite, got %g", c.Frac)
	case !(c.V >= 0) || math.IsInf(c.V, 1):
		return fmt.Errorf("-v must be finite and not negative, got %g (0 = Table 4 rule)", c.V)
	case c.Samples < 1:
		return fmt.Errorf("-samples must be positive, got %d", c.Samples)
	case c.BreakerLatency < 0:
		return fmt.Errorf("-breaker-latency must not be negative, got %s (0 = no budget)", c.BreakerLatency)
	case c.BreakerThreshold < 0:
		return fmt.Errorf("-breaker-threshold must not be negative, got %d (0 = 3)", c.BreakerThreshold)
	case c.BreakerCooldown < 0:
		return fmt.Errorf("-breaker-cooldown must not be negative, got %s (0 = 1s)", c.BreakerCooldown)
	}

	// A typo'd flash geometry fails here in milliseconds, not after the
	// trace loads.
	if c.FlashSegmentSize < 0 {
		return fmt.Errorf("-flash-segment-size must be positive, got %d (0 disables the flash layer)", c.FlashSegmentSize)
	}
	if c.FlashSegmentSize > 0 && (!(c.FlashOverprovision > 1.0) || math.IsInf(c.FlashOverprovision, 1)) {
		return fmt.Errorf("-flash-overprovision must exceed 1.0 and be finite, got %g: the slack beyond the policy's capacity is the collector's working room and the bad-block spare pool", c.FlashOverprovision)
	}
	if c.FlashSpareBlocks < 0 {
		return fmt.Errorf("-flash-spare-blocks must not be negative, got %d (0 derives the budget from the overprovision slack)", c.FlashSpareBlocks)
	}
	if c.FlashScrubInterval < 0 {
		return fmt.Errorf("-flash-scrub-interval must not be negative, got %s (0 = off)", c.FlashScrubInterval)
	}
	if c.FlashSegmentSize == 0 {
		for _, f := range []struct {
			name string
			set  bool
		}{
			{"-flash-spare-blocks", c.FlashSpareBlocks != 0},
			{"-flash-scrub-interval", c.FlashScrubInterval != 0},
			{"-flash-fault-read-every", c.FlashFaultReadEvery != 0},
			{"-flash-fault-flip-every", c.FlashFaultFlipEvery != 0},
			{"-flash-fault-program-every", c.FlashFaultProgramEvery != 0},
			{"-flash-fault-erase-every", c.FlashFaultEraseEvery != 0},
		} {
			if f.set {
				return fmt.Errorf("%s requires -flash-segment-size > 0 (the flash layer is off)", f.name)
			}
		}
	}
	return nil
}

// Drill reports whether any flash fault-drill flag is set.
func (c *Config) Drill() bool {
	return c.FlashFaultReadEvery != 0 || c.FlashFaultFlipEvery != 0 ||
		c.FlashFaultProgramEvery != 0 || c.FlashFaultEraseEvery != 0
}

// Stack is one assembled serving stack, ready for server.New.
type Stack struct {
	// Server is the engine: one Engine, or the ShardedEngine over the
	// engine shards.
	Server engine.Server
	// Criteria is the solved one-time-access criteria (zero outside the
	// proposal and ideal modes).
	Criteria labeling.Criteria
	// Shards is the resolved policy stripe count per engine shard
	// (Config.Shards, or 2x GOMAXPROCS when that is 0).
	Shards int
	// Capacity is the policy capacity in bytes.
	Capacity int64
	// Scrubber is the running scrub patrol, or nil. Stop it before the
	// final snapshot.
	Scrubber *engine.Scrubber
}

// Build assembles cfg's stack from the bootstrap trace: each engine
// shard once, with its breaker around the classifier in proposal mode,
// then the flash stores and the -model tree, and last the scrub patrol.
// A snapshot restore goes after Build, so the residency rebuild finds
// the stores wired in.
func Build(cfg Config, tr *trace.Trace) (*Stack, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	capacity := cfg.Bytes
	if capacity == 0 {
		capacity = int64(cfg.Frac * float64(tr.TotalBytes()))
	}
	lc := tier.LayerConfig{
		Policy:       cfg.Policy,
		CacheBytes:   capacity,
		Filter:       modes[cfg.Mode],
		Shards:       cfg.Shards,
		EngineShards: cfg.EngineShards,
	}
	if lc.Shards == 0 {
		lc.Shards = 2 * runtime.GOMAXPROCS(0)
	}
	if cfg.BreakerFallback != "off" {
		lc.Breaker = &engine.BreakerConfig{
			LatencyBudget:    cfg.BreakerLatency,
			FailureThreshold: cfg.BreakerThreshold,
			Cooldown:         cfg.BreakerCooldown,
		}
		lc.DoorkeeperFallback = cfg.BreakerFallback == "doorkeeper"
	}
	layer, err := tier.BuildLayer(tr, trace.BuildNextAccess(tr), tier.Config{
		CostV:               cfg.V,
		SamplesPerMinute:    cfg.Samples,
		Seed:                cfg.Seed,
		DisableHistoryTable: cfg.NoHistoryTable,
	}, lc)
	if err != nil {
		return nil, err
	}
	s := &Stack{Server: layer.Server, Criteria: layer.Criteria, Capacity: capacity, Shards: lc.Shards}

	if cfg.FlashSegmentSize > 0 {
		opts := engine.FlashOptions{
			SegmentSize:   cfg.FlashSegmentSize,
			Overprovision: cfg.FlashOverprovision,
			SpareBlocks:   cfg.FlashSpareBlocks,
		}
		if cfg.Drill() {
			// Call-indexed media faults on every shard's device, for
			// rehearsing degrade-to-miss, retirement and scrub on a live
			// daemon. Never meaningful in production.
			every := func(n uint64) *faults.Injector {
				if n == 0 {
					return nil
				}
				return faults.NewInjector(faults.EveryNth(n, faults.Fault{Kind: faults.Error}), nil)
			}
			opts.Device = func(_, segments int) flash.Device {
				return faults.WrapDevice(flash.NewMemDevice(segments),
					every(cfg.FlashFaultReadEvery), every(cfg.FlashFaultProgramEvery),
					every(cfg.FlashFaultEraseEvery), every(cfg.FlashFaultFlipEvery))
			}
		}
		if err := engine.AttachFlashOpts(s.Server, opts); err != nil {
			return nil, err
		}
	}

	if cfg.Model != "" {
		tree, err := cart.Load(cfg.Model)
		if err != nil {
			return nil, err
		}
		for _, adm := range engine.Admissions(s.Server) {
			adm.SetClassifier(tree)
		}
	}

	if cfg.FlashSegmentSize > 0 && cfg.FlashScrubInterval > 0 {
		if s.Scrubber, err = engine.NewScrubber(s.Server, cfg.FlashScrubInterval, nil); err != nil {
			return nil, err
		}
		s.Scrubber.Start()
	}
	return s, nil
}
