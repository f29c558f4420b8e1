// Command otaload replays a trace against a running otacached at a
// target QPS from N worker goroutines and reports achieved throughput,
// request-latency percentiles, and the server-side hit/write rates over
// the run (the difference of two /metrics scrapes) — the over-the-wire
// form of one otasim run, so the classifier-vs-original
// write-avoidance result can be measured across a real socket.
//
// Usage:
//
//	otaload -addr http://127.0.0.1:8344 -photos 60000 -workers 8
//	otaload -trace t.bin -qps 20000 -n 100000
//
// The trace (and -seed) must match what the daemon was bootstrapped
// with for the classifier's features to mean what the model was trained
// on — the same pairing otasim gets for free in-process.
//
// The run waits for the daemon's /readyz gate (snapshot restoration)
// before replaying, retries transient request failures with backoff,
// and exits nonzero when the failed-request percentage exceeds
// -max-error-rate — so a scripted benchmark cannot silently pass on a
// partially failed run.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"math"
	"os"
	"strconv"
	"time"

	"otacache/internal/obs"
	"otacache/internal/server"
	"otacache/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, "otaload:", err)
		os.Exit(1)
	}
}

// run is otaload with its command line and report stream as arguments;
// progress and daemon identity go to the log on stderr.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("otaload", flag.ContinueOnError)
	var (
		addr      = fs.String("addr", "http://127.0.0.1:8344", "daemon base URL")
		photos    = fs.Int("photos", 60000, "synthesize the replay trace with this many photos (ignored with -trace)")
		tracePath = fs.String("trace", "", "load the replay trace from this file")
		seed      = fs.Uint64("seed", 42, "seed")
		workers   = fs.Int("workers", 8, "concurrent request goroutines")
		qps       = fs.Float64("qps", 0, "target aggregate request rate (0 = unpaced)")
		maxN      = fs.Int("n", 0, "stop after this many requests (0 = whole trace)")
		featFlag  = fs.String("features", "auto", "send feature vectors: auto|on|off (auto reads the filter from /metrics)")
		progress  = fs.Int("progress", 0, "log a line every N dispatched requests (0 = off)")
		waitReady = fs.Duration("wait-ready", 30*time.Second, "poll /readyz this long before replaying (0 = don't wait)")
		maxErrPct = fs.Float64("max-error-rate", 1, "exit nonzero when the failed-request percentage exceeds this")
		retries   = fs.Int("retries", 3, "attempts per request (transient transport errors and 5xx lookups)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	logger := log.New(os.Stderr, "otaload: ", log.LstdFlags)

	var tr *trace.Trace
	var err error
	if *tracePath != "" {
		tr, err = trace.Load(*tracePath)
	} else {
		tr, err = trace.Generate(trace.DefaultConfig(*seed, *photos))
	}
	if err != nil {
		return err
	}

	c := server.NewClient(*addr, *workers)
	c.SetRetry(server.RetryConfig{MaxAttempts: *retries, Seed: *seed})

	// A daemon restoring a snapshot listens before it is warm; gate the
	// measured run on readiness rather than replaying into the warm-up.
	if *waitReady > 0 {
		ctx, cancel := context.WithTimeout(context.Background(), *waitReady)
		err := c.WaitReady(ctx, 0)
		cancel()
		if err != nil {
			return err
		}
	}

	st, err := c.Stats()
	if err != nil {
		return fmt.Errorf("cannot reach daemon at %s: %w", *addr, err)
	}
	info, _ := st.Sample("ota_info", -1)
	var sendFeatures bool
	switch *featFlag {
	case "on":
		sendFeatures = true
	case "off":
		sendFeatures = false
	case "auto":
		sendFeatures = info.Label("filter") == "classifier"
	default:
		return fmt.Errorf("unknown -features %q (auto|on|off)", *featFlag)
	}
	logger.Printf("daemon: policy=%s filter=%s engine-shards=%v uptime=%.0fs; replaying %d requests (workers=%d qps=%g features=%v)",
		info.Label("policy"), info.Label("filter"), st.Value("ota_engine_shards", -1), st.Value("ota_uptime_seconds", -1),
		len(tr.Requests), *workers, *qps, sendFeatures)
	if len(st.Shards) > 1 {
		for i := range st.Shards {
			logger.Printf("daemon: shard %d: residents=%v bytes=%v",
				i, st.Value("ota_shard_residents", i), st.Value("ota_shard_resident_bytes", i))
		}
	}

	rep, err := c.Replay(tr, server.ReplayOptions{
		Workers:     *workers,
		TargetQPS:   *qps,
		MaxRequests: *maxN,
		Features:    sendFeatures,
		Progress:    *progress,
		Logf:        logger.Printf,
	})
	if err != nil {
		return err
	}
	fmt.Fprint(stdout, rep)

	if after, err := c.Stats(); err == nil {
		// When the daemon models its device (-flash-segment-size), fold
		// the device-level outcome into the report: the measured write
		// amplification and the lifetime the run's write rate implies.
		// This is the paper's endpoint — fewer writes only matter if they
		// reach the flash as longer life.
		if waf, ok := after.Sample("ota_flash_waf", -1); ok {
			m := after.Cumulative
			fmt.Fprintf(stdout, "flash: host %d MB, GC %d MB, WAF %.4f, %d erases",
				m.FlashHostBytes>>20, m.FlashGCBytes>>20, waf.Value, m.FlashErases)
			if days := after.Value("ota_flash_lifetime_days", -1); days > 0 {
				fmt.Fprintf(stdout, ", est. lifetime %.1f days at this rate", days)
			}
			fmt.Fprintln(stdout)
		}

		// Server-side latency, from the daemon's own histograms: where
		// the client-side percentiles above include the socket and the
		// client stack, these isolate the handler and engine stages as
		// the daemon measured them (1-in-N sampled, ~25% bucket
		// resolution).
		for _, h := range []struct{ name, label string }{
			{"ota_http_request_duration_seconds", "http"},
			{"ota_lookup_duration_seconds", "engine lookup"},
			{"ota_classifier_duration_seconds", "classifier"},
		} {
			if line := quantileLine(after.Samples, h.name, h.label); line != "" {
				fmt.Fprintln(stdout, line)
			}
		}
	}

	if pct := 100 * rep.ErrorRate(); pct > *maxErrPct {
		return fmt.Errorf("error rate %.2f%% exceeds -max-error-rate %.2f%% (first error: %s)",
			pct, *maxErrPct, rep.FirstError)
	}
	return nil
}

// quantileLine renders one scraped histogram's p50/p99/p999 from its
// cumulative buckets ("" when the family is absent or empty).
func quantileLine(samples []obs.Sample, family, label string) string {
	var les, cums []float64
	var count float64
	for _, s := range samples {
		switch s.Name {
		case family + "_bucket":
			le, err := strconv.ParseFloat(s.Label("le"), 64)
			if err != nil { // le="+Inf"
				le = math.Inf(1)
			}
			les = append(les, le)
			cums = append(cums, s.Value)
		case family + "_count":
			count = s.Value
		}
	}
	if count == 0 || len(les) == 0 {
		return ""
	}
	return fmt.Sprintf("server %s: p50 %s, p99 %s, p99.9 %s (%d sampled)",
		label,
		secDuration(obs.BucketQuantile(les, cums, 0.50)),
		secDuration(obs.BucketQuantile(les, cums, 0.99)),
		secDuration(obs.BucketQuantile(les, cums, 0.999)),
		int64(count))
}

// secDuration formats a seconds value as a duration string.
func secDuration(s float64) time.Duration {
	return time.Duration(s * float64(time.Second)).Round(time.Nanosecond)
}
