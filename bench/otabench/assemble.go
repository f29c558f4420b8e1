package main

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"time"

	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/flash"
	"otacache/internal/server"
	"otacache/internal/tier"
)

// The constants below are cmd/otacached's flag defaults; the benchmark
// measures the daemon as an operator would start it.
const (
	cacheFrac          = 0.15    // -frac
	samplesPerMinute   = 100     // -samples
	flashSegmentSize   = 4 << 20 // -flash-segment-size 4194304, the documented example
	flashOverprovision = 1.15    // -flash-overprovision
	requestTimeout     = 5 * time.Second
)

// instance is one assembled serving stack.
type instance struct {
	// srv is what in-process clients call: the assembled engine, behind
	// the tracing decorator when a recorder is given.
	srv engine.Server
	// eng is the engine itself, for counters and flash stores.
	eng   engine.Server
	layer *tier.Layer
	// capacity is the policy capacity in bytes.
	capacity int64
	// baseURL and stop are set for HTTP workloads.
	baseURL string
	stop    func() error

	buildLayerS float64
}

// assemble builds the serving stack for sp from the stream's trace the
// way cmd/otacached does with default flags: tier.BuildLayer, the per-shard
// breaker re-wrap in proposal mode, the flash attach, and for HTTP
// workloads server.New with a retrainer that observes but never runs its
// daily loop (a run at 05:00 must not retrain mid-measurement). With a
// recorder, every seam carries its tracing decorator.
func assemble(sp spec, st *stream, rec *recorder) (*instance, error) {
	capacity := int64(cacheFrac * float64(st.tr.TotalBytes()))
	t0 := time.Now()
	layer, err := tier.BuildLayer(st.tr, st.next, tier.Config{
		SamplesPerMinute: samplesPerMinute,
		Seed:             populationSeed,
	}, tier.LayerConfig{
		Policy:       "lru",
		CacheBytes:   capacity,
		Filter:       sp.filter,
		Shards:       2 * runtime.GOMAXPROCS(0),
		EngineShards: sp.engineShards,
	})
	if err != nil {
		return nil, fmt.Errorf("build layer: %w", err)
	}
	in := &instance{layer: layer, capacity: capacity, buildLayerS: time.Since(t0).Seconds()}

	eng := layer.Server
	if sp.filter == tier.Classifier || rec != nil {
		shardEngines := eng.Shards()
		wrapped := make([]*engine.Engine, len(shardEngines))
		for i, sh := range shardEngines {
			policy, filter := sh.Policy(), sh.Filter()
			if sp.filter == tier.Classifier {
				filter, err = engine.NewBreaker(filter, engine.BreakerConfig{
					FailureThreshold: 3,
					Cooldown:         time.Second,
				})
				if err != nil {
					return nil, err
				}
			}
			if rec != nil {
				policy = &tracedPolicy{Policy: policy, rec: rec}
				filter = &tracedFilter{inner: filter, rec: rec}
			}
			wrapped[i], err = engine.New(policy, filter)
			if err != nil {
				return nil, err
			}
		}
		if len(wrapped) == 1 {
			eng = wrapped[0]
		} else {
			eng, err = engine.NewShardedEngine(wrapped, populationSeed)
			if err != nil {
				return nil, err
			}
		}
	}
	adms := server.Admissions(eng)
	if rec != nil {
		for _, adm := range adms {
			adm.SetClassifier(&tracedClassifier{Classifier: adm.Classifier(), rec: rec})
		}
	}

	if sp.flash {
		opts := engine.FlashOptions{SegmentSize: flashSegmentSize, Overprovision: flashOverprovision}
		if rec != nil {
			opts.Device = func(_, segments int) flash.Device {
				// The hook is handed capacity/segment rounded down; the
				// store rounds up, to at least four segments.
				return &tracedDevice{inner: flash.NewMemDevice(max(segments+1, 4)), rec: rec}
			}
		}
		if err := engine.AttachFlashOpts(eng, opts); err != nil {
			return nil, err
		}
	}

	in.eng, in.srv = eng, eng
	if rec != nil {
		in.srv = newTracedServer(eng, rec)
	}
	if sp.transport != overHTTP {
		return in, nil
	}

	srv := server.New(in.srv, server.Config{
		RequestTimeout: requestTimeout,
		NumFeatures:    len(features.PaperSelected()),
	})
	if len(adms) > 0 {
		srv.AttachRetrainer(server.NewRetrainer(adms, server.RetrainerConfig{
			M:                layer.Criteria.M,
			CostV:            core.CostV(capacity),
			SamplesPerMinute: samplesPerMinute,
		}))
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	in.baseURL = "http://" + ln.Addr().String()
	done := make(chan error, 1)
	shutdown := srv.Shutdown
	if rec == nil {
		go func() { done <- srv.Serve(ln) }()
	} else {
		// The handler decorator needs its own http.Server around
		// srv.Handler(); the settings are the ones server.New uses.
		hs := &http.Server{
			Handler:           &tracedHandler{inner: srv.Handler(), rec: rec},
			ReadHeaderTimeout: requestTimeout,
		}
		shutdown = hs.Shutdown
		go func() {
			err := hs.Serve(ln)
			if err == http.ErrServerClosed {
				err = nil
			}
			done <- err
		}()
	}
	in.stop = func() error {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := shutdown(ctx); err != nil {
			return fmt.Errorf("server shutdown: %w", err)
		}
		return <-done
	}
	return in, nil
}

// close stops the instance's server, if it has one.
func (in *instance) close() error {
	if in.stop == nil {
		return nil
	}
	return in.stop()
}
