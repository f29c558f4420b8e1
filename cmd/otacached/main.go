// Command otacached is the network cache daemon: it assembles one
// serving layer — a sharded replacement policy plus an admission filter
// — from a bootstrap trace and serves it over HTTP (see internal/server
// for the wire protocol). Flags mirror otasim's cache/filter
// configuration; the trace plays the role the first production day
// plays in the paper (criteria solving and classifier bootstrap), after
// which admission runs on live traffic, daily retraining happens at
// -retrain-hour from observed requests, and the model can be hot-swapped
// over the admin endpoint.
//
// Usage:
//
//	otacached -addr :8344 -policy lru -mode proposal -frac 0.15 -photos 60000
//	otacached -mode proposal -trace t.bin -bytes 500000000 -retrain-hour 5
//	otacached -mode original -photos 30000          # traditional cache
//	otacached -mode proposal -snapshot state.snap   # crash-safe restarts
//	otacached -mode proposal -engine-shards 8       # ring of 8 engines
//	otacached -mode proposal -flash-segment-size 4194304  # device WAF in /stats
//
// With -engine-shards N > 1, the daemon serves N fully independent
// engines behind a consistent-hash ring: each shard owns 1/N of the
// capacity with its own policy, admission filter, history table, and
// circuit breaker, so classifier degradation and lock contention stay
// isolated per shard. /stats reports a per-shard breakdown, the admin
// endpoints (classifier swap, retrain) apply to every shard, and
// snapshots reshard on restore if N changes between runs.
//
// In proposal mode a circuit breaker guards each shard's classifier:
// errors, panics, and over-budget decisions degrade that shard's
// admission to the -breaker-fallback filter instead of failing
// requests, and the breaker self-heals once the classifier recovers.
// With -snapshot, warm state (residency, history tables, classifier) is
// restored at startup behind the /readyz gate, persisted every
// -snapshot-interval, and written one final time after a clean drain.
//
// Observability: GET /metrics serves the Prometheus text exposition —
// every engine counter with a per-shard breakdown, flash health, breaker
// state, and the latency histograms (lookup, classifier, flash
// read/program/GC, HTTP, snapshot save/restore) sampled 1-in
// -sample-every. GET /admin/trace serves the decision-trace ring (JSON,
// or the binary codec with ?format=binary): 1 in -trace-every object
// requests is recorded with its key, shard, admission verdict, breaker
// state, flash outcome, and stage timings. -pprof-addr exposes
// net/http/pprof on its own listener, off by default.
//
// SIGINT/SIGTERM drain in-flight requests (bounded by -drain-timeout)
// and exit 0.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"math"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/faults"
	"otacache/internal/features"
	"otacache/internal/flash"
	"otacache/internal/ml/cart"
	"otacache/internal/server"
	"otacache/internal/sim"
	"otacache/internal/tier"
	"otacache/internal/trace"
)

func main() {
	var (
		addr      = flag.String("addr", ":8344", "listen address")
		policy    = flag.String("policy", "lru", "replacement policy (lru|fifo|s3lru|arc|lirs|belady)")
		mode      = flag.String("mode", "original", "admission mode (original|proposal|ideal|doorkeeper)")
		photos    = flag.Int("photos", 60000, "synthesize a bootstrap trace with this many photos (ignored with -trace)")
		tracePath = flag.String("trace", "", "load the bootstrap trace from this file instead of synthesizing")
		seed      = flag.Uint64("seed", 42, "seed")
		bytesCap  = flag.Int64("bytes", 0, "cache capacity in bytes")
		frac      = flag.Float64("frac", 0.15, "cache capacity as a fraction of the trace footprint (used when -bytes is 0)")
		shards    = flag.Int("shards", 0, "policy shard count (0 = 2x GOMAXPROCS)")
		engShards = flag.Int("engine-shards", 1, "independent engine shards behind a consistent-hash ring, each with its own policy, filter, history table, and breaker (1 = single engine)")
		costV     = flag.Float64("v", 0, "cost-matrix v (0 = Table 4 rule)")
		samples   = flag.Int("samples", 100, "training samples per minute (bootstrap and live retraining)")
		noTable   = flag.Bool("no-history-table", false, "disable the rectification table")
		noRetrain = flag.Bool("no-retrain", false, "disable daily retraining from live traffic")
		retrainAt = flag.Int("retrain-hour", sim.RetrainHourDefault, "daily retraining hour, 0-23 (0 = midnight)")
		modelPath = flag.String("model", "", "replace the bootstrap classifier with a tree saved by trainer -save")
		maxConns  = flag.Int("max-conns", 0, "concurrent connection cap (0 = unlimited)")
		reqTO     = flag.Duration("timeout", 5*time.Second, "per-request timeout")
		drainTO   = flag.Duration("drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")

		snapPath  = flag.String("snapshot", "", "crash-safe state file: restored at startup, written periodically and after drain")
		snapEvery = flag.Duration("snapshot-interval", 5*time.Minute, "periodic snapshot cadence (with -snapshot)")

		flashSeg   = flag.Int64("flash-segment-size", 0, "model the cache device as a log-structured flash store with this erase-block size in bytes; /stats grows a Flash block with measured WAF and lifetime (0 = off)")
		flashOP    = flag.Float64("flash-overprovision", 1.15, "flash device capacity as a multiple of each shard's policy capacity, > 1 (with -flash-segment-size)")
		flashSpare = flag.Int("flash-spare-blocks", 0, "bad-block retirement budget per shard store; 0 derives it from the overprovision slack (with -flash-segment-size)")
		flashScrub = flag.Duration("flash-scrub-interval", 0, "background scrub cadence: every interval one sealed segment per shard is checksum-verified and corrupt extents are dropped (0 = off; with -flash-segment-size)")

		drillReadEvery    = flag.Uint64("flash-fault-read-every", 0, "fault drill: make every Nth device read uncorrectable (0 = off; with -flash-segment-size)")
		drillFlipEvery    = flag.Uint64("flash-fault-flip-every", 0, "fault drill: silently flip one bit of every Nth programmed record (0 = off; with -flash-segment-size)")
		drillProgramEvery = flag.Uint64("flash-fault-program-every", 0, "fault drill: fail every Nth device program, retiring its block (0 = off; with -flash-segment-size)")
		drillEraseEvery   = flag.Uint64("flash-fault-erase-every", 0, "fault drill: fail every Nth device erase, retiring its block (0 = off; with -flash-segment-size)")

		sampleEvery = flag.Int("sample-every", 0, "latency sampling period for the /metrics histograms: 1 in N object requests, engine lookups, and flash reads are timed (0 = 64; 1 = every request; the lookup stage rounds N up to a power of two)")
		traceCap    = flag.Int("trace-cap", 0, "decision-trace ring capacity served by /admin/trace (0 = 1024; negative disables tracing)")
		traceEvery  = flag.Int("trace-every", 0, "trace 1 in N object requests into the decision ring (0 = 16)")
		pprofAddr   = flag.String("pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off, never exposed on the serving port)")

		brFallback  = flag.String("breaker-fallback", "admit-all", "degraded admission when the classifier fails (admit-all|doorkeeper|off)")
		brLatency   = flag.Duration("breaker-latency", 0, "classifier latency budget; slower decisions count as breaker failures (0 = none)")
		brThreshold = flag.Int("breaker-threshold", 3, "consecutive classifier failures that open the breaker")
		brCooldown  = flag.Duration("breaker-cooldown", time.Second, "open-state wait before half-open probes")
	)
	flag.Parse()
	log.SetPrefix("otacached: ")
	log.SetFlags(log.LstdFlags)

	// Validate the flash surface before the (slow) bootstrap: a typo'd
	// geometry should fail in milliseconds with a clear message, not
	// after the trace loads.
	if *flashSeg < 0 {
		fail(fmt.Errorf("-flash-segment-size must be positive, got %d (0 disables the flash layer)", *flashSeg))
	}
	if *flashSeg > 0 && (!(*flashOP > 1.0) || math.IsInf(*flashOP, 1)) {
		fail(fmt.Errorf("-flash-overprovision must exceed 1.0 and be finite, got %g: the slack beyond the policy's capacity is the collector's working room and the bad-block spare pool", *flashOP))
	}
	if *flashSpare < 0 {
		fail(fmt.Errorf("-flash-spare-blocks must not be negative, got %d (0 derives the budget from the overprovision slack)", *flashSpare))
	}
	if *flashSeg == 0 {
		for name, set := range map[string]bool{
			"-flash-spare-blocks":        *flashSpare != 0,
			"-flash-scrub-interval":      *flashScrub != 0,
			"-flash-fault-read-every":    *drillReadEvery != 0,
			"-flash-fault-flip-every":    *drillFlipEvery != 0,
			"-flash-fault-program-every": *drillProgramEvery != 0,
			"-flash-fault-erase-every":   *drillEraseEvery != 0,
		} {
			if set {
				fail(fmt.Errorf("%s requires -flash-segment-size > 0 (the flash layer is off)", name))
			}
		}
	}

	var kind tier.FilterKind
	switch *mode {
	case "original":
		kind = tier.AdmitAll
	case "proposal":
		kind = tier.Classifier
	case "ideal":
		kind = tier.Oracle
	case "doorkeeper":
		kind = tier.Doorkeeper
	default:
		fail(fmt.Errorf("unknown mode %q", *mode))
	}
	retrainHour, err := resolveRetrainHour(*noRetrain, *retrainAt)
	if err != nil {
		fail(err)
	}

	var tr *trace.Trace
	if *tracePath != "" {
		tr, err = trace.Load(*tracePath)
	} else {
		tr, err = trace.Generate(trace.DefaultConfig(*seed, *photos))
	}
	if err != nil {
		fail(err)
	}
	capacity := *bytesCap
	if capacity <= 0 {
		capacity = int64(*frac * float64(tr.TotalBytes()))
	}
	nshards := *shards
	if nshards <= 0 {
		nshards = 2 * runtime.GOMAXPROCS(0)
	}
	if *engShards < 1 {
		fail(fmt.Errorf("-engine-shards must be >= 1, got %d", *engShards))
	}

	log.Printf("bootstrap: %d requests over %d photos; capacity %d MB (%.1f%% of footprint)",
		len(tr.Requests), len(tr.Photos), capacity>>20, 100*float64(capacity)/float64(tr.TotalBytes()))
	next := trace.BuildNextAccess(tr)
	layer, err := tier.BuildLayer(tr, next, tier.Config{
		CostV:               *costV,
		SamplesPerMinute:    *samples,
		Seed:                *seed,
		DisableHistoryTable: *noTable,
	}, tier.LayerConfig{
		Policy:       *policy,
		CacheBytes:   capacity,
		Filter:       kind,
		Shards:       nshards,
		EngineShards: *engShards,
	})
	if err != nil {
		fail(err)
	}
	if kind == tier.Classifier || kind == tier.Oracle {
		log.Printf("criteria: %s", layer.Criteria)
	}

	// In proposal mode a circuit breaker stands between each engine
	// shard and its classifier: a failing model degrades that shard's
	// admission, never requests — and never the other shards.
	eng := layer.Server
	if kind == tier.Classifier && *brFallback != "off" {
		shardEngines := eng.Shards()
		wrapped := make([]*engine.Engine, len(shardEngines))
		for i, sh := range shardEngines {
			var fallback core.Filter
			switch *brFallback {
			case "admit-all":
				// NewBreaker's default.
			case "doorkeeper":
				// The fallback doorkeeper is sized to the shard's slice
				// of the capacity, like the shard's own filter would be.
				width := int(capacity / int64(len(shardEngines)) / tr.MeanPhotoSize())
				if width < 1024 {
					width = 1024
				}
				fallback, err = core.NewFrequencyAdmission(width, 1)
				if err != nil {
					fail(err)
				}
			default:
				fail(fmt.Errorf("unknown -breaker-fallback %q", *brFallback))
			}
			breaker, err := engine.NewBreaker(sh.Filter(), engine.BreakerConfig{
				Fallback:         fallback,
				LatencyBudget:    *brLatency,
				FailureThreshold: *brThreshold,
				Cooldown:         *brCooldown,
			})
			if err != nil {
				fail(err)
			}
			wrapped[i], err = engine.New(sh.Policy(), breaker)
			if err != nil {
				fail(err)
			}
		}
		if len(wrapped) == 1 {
			eng = wrapped[0]
		} else {
			eng, err = engine.NewShardedEngine(wrapped, *seed)
			if err != nil {
				fail(err)
			}
		}
		log.Printf("breaker: fallback=%s threshold=%d cooldown=%s latency-budget=%s (per shard x%d)",
			*brFallback, *brThreshold, *brCooldown, *brLatency, len(wrapped))
	}

	// The flash device model attaches after the final engine assembly —
	// the breaker re-wrap above builds fresh engines around the shard
	// policies — and before any snapshot restore below, so the restore's
	// residency rebuild finds the stores already wired in.
	var scrubber *engine.Scrubber
	if *flashSeg > 0 {
		opts := engine.FlashOptions{
			SegmentSize:   *flashSeg,
			Overprovision: *flashOP,
			SpareBlocks:   *flashSpare,
		}
		drill := *drillReadEvery != 0 || *drillFlipEvery != 0 || *drillProgramEvery != 0 || *drillEraseEvery != 0
		if drill {
			// The fault drill wraps each shard's device with call-indexed
			// injectors: deterministic media faults for rehearsing the
			// degrade-to-miss, retirement, and scrub machinery on a live
			// daemon. Never meaningful in production — the flags exist so
			// an operator can watch /stats FlashHealth move before trusting
			// it during a real incident.
			mk := func(n uint64) *faults.Injector {
				if n == 0 {
					return nil
				}
				return faults.NewInjector(faults.EveryNth(n, faults.Fault{Kind: faults.Error}), nil)
			}
			opts.Device = func(shard, segments int) flash.Device {
				return faults.WrapDevice(flash.NewMemDevice(segments),
					mk(*drillReadEvery), mk(*drillProgramEvery), mk(*drillEraseEvery), mk(*drillFlipEvery))
			}
			log.Printf("flash drill: injecting media faults (read-every=%d flip-every=%d program-every=%d erase-every=%d)",
				*drillReadEvery, *drillFlipEvery, *drillProgramEvery, *drillEraseEvery)
		}
		if err := engine.AttachFlashOpts(eng, opts); err != nil {
			fail(err)
		}
		log.Printf("flash: log-structured store per shard, segment=%d KB overprovision=%.2f spare-blocks=%d (x%d)",
			*flashSeg>>10, *flashOP, eng.Shards()[0].Flash().Stats().SpareBlocks, len(eng.Shards()))
		if *flashScrub > 0 {
			scrubber, err = engine.NewScrubber(eng, *flashScrub, nil)
			if err != nil {
				fail(err)
			}
			scrubber.Start()
			log.Printf("flash scrub: one segment per shard every %s", *flashScrub)
		}
	}

	// adms are the per-shard classifier admissions behind any breaker
	// wrapping above; the model and retraining paths install into all.
	adms := server.Admissions(eng)

	srv := server.New(eng, server.Config{
		MaxConns:         *maxConns,
		RequestTimeout:   *reqTO,
		NumFeatures:      len(features.PaperSelected()),
		SampleEvery:      *sampleEvery,
		TraceCap:         *traceCap,
		TraceSampleEvery: *traceEvery,
	})

	// The profiler gets its own listener and mux: never the serving
	// port, so an operator can firewall it separately and a scrape of
	// /metrics can't wander into a heap dump.
	if *pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fail(fmt.Errorf("-pprof-addr: %w", err))
		}
		log.Printf("pprof: serving on http://%s/debug/pprof/", pln.Addr())
		go func() {
			if err := http.Serve(pln, pm); err != nil {
				log.Printf("pprof: %v", err)
			}
		}()
	}

	if *modelPath != "" {
		if len(adms) == 0 {
			fail(fmt.Errorf("-model requires -mode proposal"))
		}
		tree, err := cart.Load(*modelPath)
		if err != nil {
			fail(err)
		}
		for _, adm := range adms {
			adm.SetClassifier(tree)
		}
		log.Printf("model: installed %s (%d splits) into %d shard(s)", *modelPath, tree.NumSplits(), len(adms))
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if len(adms) > 0 && retrainHour >= 0 {
		v := *costV
		if v <= 0 {
			v = core.CostV(capacity)
		}
		rt := server.NewRetrainer(adms, server.RetrainerConfig{
			M:                layer.Criteria.M,
			CostV:            v,
			SamplesPerMinute: *samples,
		})
		srv.AttachRetrainer(rt)
		go rt.RunDaily(ctx, retrainHour, log.Printf)
		log.Printf("retraining: daily at %02d:00 from live traffic (%d samples/min)", retrainHour, *samples)
	}

	// Crash-safe state: the daemon is listening but not ready while the
	// previous run's snapshot is restored, so orchestrators (and otaload)
	// can gate on /readyz instead of racing the warm-up.
	var snap *server.Snapshotter
	if *snapPath != "" {
		snap = server.NewSnapshotter(eng, *snapPath)
		srv.AttachSnapshotter(snap)
		srv.SetNotReady("restoring snapshot")
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fail(err)
	}
	first := eng.Shards()[0]
	log.Printf("serving policy=%s filter=%s on %s (engine-shards=%d, shards=%d, max-conns=%d, timeout=%s)",
		first.Policy().Name(), first.Filter().Name(), ln.Addr(), len(eng.Shards()), nshards, *maxConns, *reqTO)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	if snap != nil {
		// RestoreSnapshot rather than LoadSnapshot: the restore latency
		// lands in the snapshot-restore histogram, so a slow warm start
		// is visible on /metrics after the fact.
		res, err := srv.RestoreSnapshot(*snapPath)
		switch {
		case err == nil:
			log.Printf("snapshot: restored %d residents (%d MB), %d table entries, tree=%v, resuming at tick %d",
				res.Residents, res.ResidentBytes>>20, res.TableEntries, res.HasTree, res.Tick)
		case errors.Is(err, os.ErrNotExist):
			log.Printf("snapshot: no state at %s, cold start", *snapPath)
		default:
			log.Printf("snapshot: restore failed, serving cold: %v", err)
		}
		srv.SetReady()
		go snap.Run(ctx, *snapEvery, log.Printf)
		log.Printf("snapshot: writing to %s every %s", *snapPath, *snapEvery)
	}

	select {
	case err := <-done:
		if err != nil {
			fail(err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining (budget %s)", *drainTO)
		sctx, cancel := context.WithTimeout(context.Background(), *drainTO)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		<-done
		if scrubber != nil {
			// Stop the patrol before the final snapshot so no scrub drop
			// races the residency walk.
			scrubber.Stop()
		}
		if snap != nil {
			// One final write now that the counters have settled: the next
			// start resumes from exactly the drained state.
			if res, err := snap.WriteNow(); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				log.Printf("final snapshot: %d residents, %d table entries -> %s",
					res.Residents, res.TableEntries, *snapPath)
			}
		}
		m := eng.Snapshot()
		log.Printf("drained cleanly: served %d requests (%.2f%% hits, %.2f%% writes, %d degraded)",
			m.Requests, 100*m.HitRate(), 100*m.WriteRate(), m.Degraded)
	}
}

// resolveRetrainHour maps the otasim-compatible flag surface to a
// concrete hour, or -1 for disabled.
func resolveRetrainHour(noRetrain bool, hour int) (int, error) {
	if noRetrain {
		return -1, nil
	}
	if hour < 0 || hour > 23 {
		return 0, fmt.Errorf("-retrain-hour %d outside [0, 23]", hour)
	}
	return hour, nil
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "otacached:", err)
	os.Exit(1)
}
