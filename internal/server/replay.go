package server

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/stats"
	"otacache/internal/trace"
)

// ReplayOptions configures one load-replay run.
type ReplayOptions struct {
	// Workers is the number of concurrent request goroutines (0 = 1).
	Workers int
	// TargetQPS paces dispatch at this aggregate rate (0 = as fast as
	// the workers manage).
	TargetQPS float64
	// MaxRequests stops after this many requests (0 = the whole trace).
	MaxRequests int
	// Features extracts per-request feature vectors from the trace and
	// sends them on the wire — required against a classifier-filtered
	// daemon. Extraction is sequential in the dispatcher, matching the
	// extractor's stream contract.
	Features bool
	// FeatureCols projects the extracted vector to these columns (nil =
	// the paper's selected five).
	FeatureCols []int
	// Progress, when > 0, invokes Logf every Progress requests.
	Progress int
	// Logf receives progress lines (nil discards).
	Logf func(format string, args ...any)
}

// ReplayReport is the outcome of one replay: client-side throughput and
// latency, plus the server-side counter movement over the run.
type ReplayReport struct {
	Requests    int
	Errors      int
	Duration    time.Duration
	AchievedQPS float64

	// FirstError is the first request failure observed (empty when
	// Errors == 0) — one concrete symptom beats a bare count when a run
	// goes sideways.
	FirstError string
	// RetriesUsed is the client's lifetime retry count after the run.
	RetriesUsed int64

	// Client-observed hits (from response status).
	Hits int64

	// Latency percentiles over individual request round-trips, in
	// microseconds.
	LatencyMeanUs float64
	LatencyP50Us  float64
	LatencyP90Us  float64
	LatencyP99Us  float64
	LatencyMaxUs  float64

	// Server counters around the run; Delta is After - Before.
	Before engine.Metrics
	After  engine.Metrics
	Delta  engine.Metrics
}

// ErrorRate returns the fraction of requests that failed.
func (r *ReplayReport) ErrorRate() float64 {
	return ratio(int64(r.Errors), int64(r.Requests))
}

// String renders the report as the otaload summary block.
func (r *ReplayReport) String() string {
	d := r.Delta
	s := fmt.Sprintf(
		"requests:          %d (%d errors) in %.2fs\n"+
			"achieved qps:      %.0f\n"+
			"latency us:        mean=%.0f p50=%.0f p90=%.0f p99=%.0f max=%.0f\n"+
			"client hit rate:   %.2f%%\n"+
			"server hit rate:   %.2f%%  byte hit rate: %.2f%%\n"+
			"server write rate: %.2f%%  (%d SSD writes, %.2f GB)\n"+
			"server bypassed:   %d  rectified: %d\n",
		r.Requests, r.Errors, r.Duration.Seconds(),
		r.AchievedQPS,
		r.LatencyMeanUs, r.LatencyP50Us, r.LatencyP90Us, r.LatencyP99Us, r.LatencyMaxUs,
		100*ratio(r.Hits, int64(r.Requests)),
		100*d.HitRate(), 100*d.ByteHitRate(),
		100*d.WriteRate(), d.Writes, float64(d.WriteBytes)/(1<<30),
		d.Bypassed, d.Rectified)
	if r.Errors > 0 {
		s += fmt.Sprintf("error rate:        %.2f%%  first error: %s\n",
			100*r.ErrorRate(), r.FirstError)
	}
	if r.RetriesUsed > 0 {
		s += fmt.Sprintf("client retries:    %d\n", r.RetriesUsed)
	}
	if d.Degraded > 0 {
		s += fmt.Sprintf("server degraded:   %d decisions served by fallback\n", d.Degraded)
	}
	return s
}

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type replayJob struct {
	key  uint64
	size int64
	feat []float64
}

// Replay streams the trace's request sequence against the daemon from
// opt.Workers goroutines, pacing at opt.TargetQPS, and reports achieved
// throughput, latency percentiles, and the server-side counter movement
// (scraped from /metrics before and after).
//
// The dispatcher walks the trace in order — feature extraction is
// stateful and sequential — while workers race on the wire, so with
// more than one worker the server may observe a slightly reordered
// stream (exactly what a fleet of concurrent downloaders produces).
func (c *Client) Replay(tr *trace.Trace, opt ReplayOptions) (*ReplayReport, error) {
	workers := opt.Workers
	if workers <= 0 {
		workers = 1
	}
	limit := len(tr.Requests)
	if opt.MaxRequests > 0 && opt.MaxRequests < limit {
		limit = opt.MaxRequests
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}

	before, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("replay: scraping /metrics before run: %w", err)
	}

	var (
		hits      atomic.Int64
		errs      atomic.Int64
		firstErr  atomic.Value
		latencies = make([][]float64, workers)
	)
	jobs := make(chan replayJob, workers*4)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			lat := make([]float64, 0, limit/workers+1)
			for j := range jobs {
				start := c.clock.Now()
				res, err := c.Lookup(j.key, j.size, j.feat)
				lat = append(lat, float64(c.clock.Now().Sub(start).Microseconds()))
				if err != nil {
					errs.Add(1)
					firstErr.CompareAndSwap(nil, err)
					continue
				}
				if res.Hit {
					hits.Add(1)
				}
			}
			latencies[w] = lat
		}(w)
	}

	var ex *features.Extractor
	var cols []int
	if opt.Features {
		ex = features.NewExtractor(tr)
		cols = opt.FeatureCols
		if cols == nil {
			cols = features.PaperSelected()
		}
	}
	var full [features.NumFeatures]float64
	start := c.clock.Now()
	for i := 0; i < limit; i++ {
		req := &tr.Requests[i]
		job := replayJob{
			key:  uint64(req.Photo),
			size: tr.Photos[req.Photo].Size,
		}
		if ex != nil {
			ex.NextInto(i, full[:])
			proj := make([]float64, len(cols))
			for j, col := range cols {
				proj[j] = full[col]
			}
			job.feat = proj
		}
		if opt.TargetQPS > 0 {
			due := start.Add(time.Duration(float64(i) * float64(time.Second) / opt.TargetQPS))
			if d := due.Sub(c.clock.Now()); d > time.Millisecond {
				c.clock.Sleep(d)
			}
		}
		jobs <- job
		if opt.Progress > 0 && (i+1)%opt.Progress == 0 {
			logf("replay: %d/%d dispatched", i+1, limit)
		}
	}
	close(jobs)
	wg.Wait()
	elapsed := c.clock.Now().Sub(start)

	after, err := c.Stats()
	if err != nil {
		return nil, fmt.Errorf("replay: scraping /metrics after run: %w", err)
	}

	rep := &ReplayReport{
		Requests:    limit,
		Errors:      int(errs.Load()),
		Duration:    elapsed,
		Hits:        hits.Load(),
		RetriesUsed: c.RetriesUsed(),
		Before:      before.Cumulative,
		After:       after.Cumulative,
		Delta:       after.Cumulative.Sub(before.Cumulative),
	}
	if e, ok := firstErr.Load().(error); ok {
		rep.FirstError = e.Error()
	}
	if rep.Errors == limit && limit > 0 {
		if e, ok := firstErr.Load().(error); ok {
			return nil, fmt.Errorf("replay: every request failed: %w", e)
		}
	}
	if elapsed > 0 {
		rep.AchievedQPS = float64(limit) / elapsed.Seconds()
	}
	var all []float64
	for _, l := range latencies {
		all = append(all, l...)
	}
	if len(all) > 0 {
		rep.LatencyMeanUs = stats.Mean(all)
		rep.LatencyP50Us = stats.Percentile(all, 50)
		rep.LatencyP90Us = stats.Percentile(all, 90)
		rep.LatencyP99Us = stats.Percentile(all, 99)
		sort.Float64s(all)
		rep.LatencyMaxUs = all[len(all)-1]
	}
	return rep, nil
}
