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
//	otacached -mode proposal -engine-shards 8       # 8 hash-routed engines
//	otacached -mode proposal -flash-segment-size 4194304  # device WAF on /metrics
//
// With -engine-shards N > 1, the daemon serves N fully independent
// engines, routed by a seeded hash of the key: each shard owns 1/N of the
// capacity with its own policy, admission filter, history table, and
// circuit breaker, so classifier degradation and lock contention stay
// isolated per shard. /metrics reports a per-shard breakdown, the admin
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
// The flags that decide what is served bind onto a stack.Config, and
// stack.Build assembles it (breakers, flash, drill, scrubber); the
// daemon adds the HTTP server, the retrainer and the snapshot restore.
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
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"syscall"
	"time"

	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/ml/cart"
	"otacache/internal/server"
	"otacache/internal/sim"
	"otacache/internal/stack"
	"otacache/internal/trace"
)

// options is otacached's command line: the assembly in cfg (see
// internal/stack), and beside it the bootstrap trace, the listener,
// retraining, snapshots and observability.
type options struct {
	cfg stack.Config

	addr, tracePath, snapPath, pprofAddr string
	photos, retrainAt, maxConns          int
	sampleEvery, traceCap, traceEvery    int
	noRetrain                            bool
	reqTO, drainTO, snapEvery            time.Duration
}

// bindFlags registers every flag on fs, seeding the assembly from
// stack.Defaults.
func bindFlags(fs *flag.FlagSet) *options {
	o := &options{cfg: stack.Defaults()}
	c := &o.cfg
	fs.StringVar(&o.addr, "addr", ":8344", "listen address")
	fs.StringVar(&c.Policy, "policy", c.Policy, "replacement policy (lru|fifo|s3lru|arc|lirs|belady)")
	fs.StringVar(&c.Mode, "mode", c.Mode, "admission mode (original|proposal|ideal|doorkeeper)")
	fs.IntVar(&o.photos, "photos", 60000, "synthesize a bootstrap trace with this many photos (ignored with -trace)")
	fs.StringVar(&o.tracePath, "trace", "", "load the bootstrap trace from this file instead of synthesizing")
	fs.Uint64Var(&c.Seed, "seed", c.Seed, "seed")
	fs.Int64Var(&c.Bytes, "bytes", c.Bytes, "cache capacity in bytes")
	fs.Float64Var(&c.Frac, "frac", c.Frac, "cache capacity as a fraction of the trace footprint (used when -bytes is 0)")
	fs.IntVar(&c.Shards, "shards", c.Shards, "policy shard count (0 = 2x GOMAXPROCS)")
	fs.IntVar(&c.EngineShards, "engine-shards", c.EngineShards, "independent engine shards routed by a seeded key hash, each with its own policy, filter, history table, and breaker (1 = single engine)")
	fs.Float64Var(&c.V, "v", c.V, "cost-matrix v (0 = Table 4 rule)")
	fs.IntVar(&c.Samples, "samples", c.Samples, "training samples per minute (bootstrap and live retraining)")
	fs.BoolVar(&c.NoHistoryTable, "no-history-table", c.NoHistoryTable, "disable the rectification table")
	fs.BoolVar(&o.noRetrain, "no-retrain", false, "disable daily retraining from live traffic")
	fs.IntVar(&o.retrainAt, "retrain-hour", sim.RetrainHourDefault, "daily retraining hour, 0-23 (0 = midnight)")
	fs.StringVar(&c.Model, "model", c.Model, "replace the bootstrap classifier with a tree saved by trainer -save")
	fs.IntVar(&o.maxConns, "max-conns", 0, "concurrent connection cap (0 = unlimited)")
	fs.DurationVar(&o.reqTO, "timeout", 5*time.Second, "bound on reading a request's headers and on handling a control-plane request (object requests do no I/O and run without a handler timeout)")
	fs.DurationVar(&o.drainTO, "drain-timeout", 30*time.Second, "graceful shutdown budget for in-flight requests")

	fs.StringVar(&o.snapPath, "snapshot", "", "crash-safe state file: restored at startup, written periodically and after drain")
	fs.DurationVar(&o.snapEvery, "snapshot-interval", 5*time.Minute, "periodic snapshot cadence (with -snapshot)")

	fs.Int64Var(&c.FlashSegmentSize, "flash-segment-size", c.FlashSegmentSize, "model the cache device as a log-structured flash store with this erase-block size in bytes; /metrics grows the ota_flash_* families with measured WAF and lifetime (0 = off)")
	fs.Float64Var(&c.FlashOverprovision, "flash-overprovision", c.FlashOverprovision, "flash device capacity as a multiple of each shard's policy capacity, > 1 (with -flash-segment-size)")
	fs.IntVar(&c.FlashSpareBlocks, "flash-spare-blocks", c.FlashSpareBlocks, "bad-block retirement budget per shard store; 0 derives it from the overprovision slack (with -flash-segment-size)")
	fs.DurationVar(&c.FlashScrubInterval, "flash-scrub-interval", c.FlashScrubInterval, "background scrub cadence: every interval one sealed segment per shard is checksum-verified and corrupt extents are dropped (0 = off; with -flash-segment-size)")

	fs.Uint64Var(&c.FlashFaultReadEvery, "flash-fault-read-every", c.FlashFaultReadEvery, "fault drill: make every Nth device read uncorrectable (0 = off; with -flash-segment-size)")
	fs.Uint64Var(&c.FlashFaultFlipEvery, "flash-fault-flip-every", c.FlashFaultFlipEvery, "fault drill: silently flip one bit of every Nth programmed record (0 = off; with -flash-segment-size)")
	fs.Uint64Var(&c.FlashFaultProgramEvery, "flash-fault-program-every", c.FlashFaultProgramEvery, "fault drill: fail every Nth device program, retiring its block (0 = off; with -flash-segment-size)")
	fs.Uint64Var(&c.FlashFaultEraseEvery, "flash-fault-erase-every", c.FlashFaultEraseEvery, "fault drill: fail every Nth device erase, retiring its block (0 = off; with -flash-segment-size)")

	fs.IntVar(&o.sampleEvery, "sample-every", 0, "latency sampling period for the /metrics histograms: 1 in N object requests, engine lookups, and flash reads and programs are timed (0 = 64; 1 = every request; the lookup stage rounds N up to a power of two)")
	fs.IntVar(&o.traceCap, "trace-cap", 0, "decision-trace ring capacity served by /admin/trace (0 = 1024; negative disables tracing)")
	fs.IntVar(&o.traceEvery, "trace-every", 0, "trace 1 in N object requests into the decision ring (0 = 16)")
	fs.StringVar(&o.pprofAddr, "pprof-addr", "", "serve net/http/pprof on this address (e.g. 127.0.0.1:6060; empty = off, never exposed on the serving port)")

	fs.StringVar(&c.BreakerFallback, "breaker-fallback", c.BreakerFallback, "degraded admission when the classifier fails (admit-all|doorkeeper|off)")
	fs.DurationVar(&c.BreakerLatency, "breaker-latency", c.BreakerLatency, "classifier latency budget; slower decisions count as breaker failures (0 = none)")
	fs.IntVar(&c.BreakerThreshold, "breaker-threshold", c.BreakerThreshold, "consecutive classifier failures that open the breaker")
	fs.DurationVar(&c.BreakerCooldown, "breaker-cooldown", c.BreakerCooldown, "open-state wait before half-open probes")
	return o
}

func main() {
	o := bindFlags(flag.CommandLine)
	flag.Parse()
	log.SetPrefix("otacached: ")
	log.SetFlags(log.LstdFlags)
	cfg := &o.cfg

	// Every assembly flag is checked before the (slow) bootstrap: a
	// typo fails in milliseconds with a message naming the flag.
	if err := cfg.Validate(); err != nil {
		fail(err)
	}
	retrainHour, err := resolveRetrainHour(o.noRetrain, o.retrainAt)
	if err != nil {
		fail(err)
	}

	var tr *trace.Trace
	if o.tracePath != "" {
		tr, err = trace.Load(o.tracePath)
	} else {
		tr, err = trace.Generate(trace.DefaultConfig(cfg.Seed, o.photos))
	}
	if err != nil {
		fail(err)
	}
	st, err := stack.Build(*cfg, tr)
	if err != nil {
		fail(err)
	}
	eng, adms := st.Server, engine.Admissions(st.Server)
	log.Printf("bootstrap: %d requests over %d photos; capacity %d MB (%.1f%% of footprint)",
		len(tr.Requests), len(tr.Photos), st.Capacity>>20, 100*float64(st.Capacity)/float64(tr.TotalBytes()))
	if st.Criteria.CacheBytes > 0 {
		log.Printf("criteria: %s", st.Criteria)
	}
	if len(adms) > 0 && cfg.BreakerFallback != "off" {
		log.Printf("breaker: fallback=%s threshold=%d cooldown=%s latency-budget=%s (per shard x%d)",
			cfg.BreakerFallback, cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.BreakerLatency, len(adms))
	}
	if cfg.Drill() {
		log.Printf("flash drill: injecting media faults (read-every=%d flip-every=%d program-every=%d erase-every=%d)",
			cfg.FlashFaultReadEvery, cfg.FlashFaultFlipEvery, cfg.FlashFaultProgramEvery, cfg.FlashFaultEraseEvery)
	}
	if fs := eng.Shards()[0].Flash(); fs != nil {
		log.Printf("flash: log-structured store per shard, segment=%d KB overprovision=%.2f spare-blocks=%d (x%d)",
			cfg.FlashSegmentSize>>10, cfg.FlashOverprovision, fs.Stats().SpareBlocks, len(eng.Shards()))
	}
	if st.Scrubber != nil {
		log.Printf("flash scrub: one segment per shard every %s", cfg.FlashScrubInterval)
	}
	if cfg.Model != "" {
		tree := adms[0].Classifier().(*cart.Tree)
		log.Printf("model: installed %s (%d splits) into %d shard(s)", cfg.Model, tree.NumSplits(), len(adms))
	}

	srv := server.New(eng, server.Config{
		MaxConns:         o.maxConns,
		RequestTimeout:   o.reqTO,
		NumFeatures:      len(features.PaperSelected()),
		SampleEvery:      o.sampleEvery,
		TraceCap:         o.traceCap,
		TraceSampleEvery: o.traceEvery,
	})

	// The profiler gets its own listener and mux: never the serving
	// port, so an operator can firewall it separately and a scrape of
	// /metrics can't wander into a heap dump.
	if o.pprofAddr != "" {
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		pln, err := net.Listen("tcp", o.pprofAddr)
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

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	if len(adms) > 0 && retrainHour >= 0 {
		v := cfg.V
		if v <= 0 {
			v = core.CostV(st.Capacity)
		}
		rt := server.NewRetrainer(adms, server.RetrainerConfig{
			M:                st.Criteria.M,
			CostV:            v,
			SamplesPerMinute: cfg.Samples,
		})
		srv.AttachRetrainer(rt)
		go rt.RunDaily(ctx, retrainHour, log.Printf)
		log.Printf("retraining: daily at %02d:00 from live traffic (%d samples/min)", retrainHour, cfg.Samples)
	}

	// Crash-safe state: the daemon is listening but not ready while the
	// previous run's snapshot is restored, so orchestrators (and otaload)
	// can gate on /readyz instead of racing the warm-up.
	var snap *server.Snapshotter
	if o.snapPath != "" {
		snap = server.NewSnapshotter(eng, o.snapPath)
		srv.AttachSnapshotter(snap)
		srv.SetNotReady("restoring snapshot")
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		fail(err)
	}
	first := eng.Shards()[0]
	log.Printf("serving policy=%s filter=%s on %s (engine-shards=%d, shards=%d, max-conns=%d, timeout=%s)",
		first.Policy().Name(), first.Filter().Name(), ln.Addr(), len(eng.Shards()), st.Shards, o.maxConns, o.reqTO)

	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	if snap != nil {
		// RestoreSnapshot rather than LoadSnapshot: the restore latency
		// lands in the snapshot-restore histogram, so a slow warm start
		// is visible on /metrics after the fact.
		res, err := srv.RestoreSnapshot(o.snapPath)
		switch {
		case err == nil:
			log.Printf("snapshot: restored %d residents (%d MB), %d table entries, tree=%v, resuming at tick %d",
				res.Residents, res.ResidentBytes>>20, res.TableEntries, res.HasTree, res.Tick)
		case errors.Is(err, os.ErrNotExist):
			log.Printf("snapshot: no state at %s, cold start", o.snapPath)
		default:
			log.Printf("snapshot: restore failed, serving cold: %v", err)
		}
		srv.SetReady()
		go snap.Run(ctx, o.snapEvery, log.Printf)
		log.Printf("snapshot: writing to %s every %s", o.snapPath, o.snapEvery)
	}

	select {
	case err := <-done:
		if err != nil {
			fail(err)
		}
	case <-ctx.Done():
		stop()
		log.Printf("signal received, draining (budget %s)", o.drainTO)
		sctx, cancel := context.WithTimeout(context.Background(), o.drainTO)
		defer cancel()
		if err := srv.Shutdown(sctx); err != nil {
			log.Printf("drain incomplete: %v", err)
			os.Exit(1)
		}
		<-done
		if st.Scrubber != nil {
			// Stop the patrol before the final snapshot so no scrub drop
			// races the residency walk.
			st.Scrubber.Stop()
		}
		if snap != nil {
			// One final write now that the counters have settled: the next
			// start resumes from exactly the drained state.
			if res, err := snap.WriteNow(); err != nil {
				log.Printf("final snapshot: %v", err)
			} else {
				log.Printf("final snapshot: %d residents, %d table entries -> %s",
					res.Residents, res.TableEntries, o.snapPath)
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
