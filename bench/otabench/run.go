package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"path/filepath"
	"runtime"
	"time"

	"otacache/internal/engine"
	"otacache/internal/server"
	"otacache/internal/tier"
)

// runConfig is what the command line decides for every workload.
type runConfig struct {
	seed    uint64
	seconds float64
	// clients is the closed-loop client count of the timed window.
	clients int
	// setups is how often an end-to-end run sets the workload up; setup_s
	// is the median.
	setups int
	// outDir receives trace-<workload>.jsonl from traced runs.
	outDir string
}

// workloadResult is everything one workload reports.
type workloadResult struct {
	Correct    bool     `json:"correct"`
	Attempted  int64    `json:"attempted"`
	Failed     int64    `json:"failed"`
	Violations []string `json:"violations,omitempty"`
	// EndToEnd is measured with tracing off; PerLayer comes from the
	// separate traced run.
	EndToEnd map[string]metric `json:"end_to_end,omitempty"`
	PerLayer map[string]metric `json:"per_layer,omitempty"`
	// Breakdown is the traced time of one lookup split by layer (self
	// time per lookup, ns); the entries add up to "total".
	Breakdown map[string]float64 `json:"breakdown_ns_per_lookup,omitempty"`
	// Percentile is the highest percentile the per-slice latency sample
	// supports under the ten-samples-beyond rule.
	Percentile float64 `json:"highest_supported_percentile,omitempty"`
}

// prepared is one workload set up and warmed, ready for its window.
type prepared struct {
	st *stream
	in *instance
	fn lookupFn
	// heapBase is the live heap with the trace and features loaded and
	// nothing of the serving stack built yet.
	heapBase uint64
	// warm is the engine's counters after the warm-up passes.
	warm engine.Metrics
	// start is the stream position of the first timed request.
	start           int64
	setupS, warmupS float64
}

// prepare generates the workload's inputs, assembles the stack and
// replays the warm-up passes: everything between "workload start" and
// the first timed request. The warm-up runs in process with one client
// on every workload — deterministic, so every run (and every repetition
// within a run) opens its window on the same engine state.
func prepare(sp spec, cfg runConfig, clients int, rec *recorder) (*prepared, error) {
	t0 := time.Now()
	st, err := loadStream(cfg.seed, sp.photos, sp.filter == tier.Classifier)
	if err != nil {
		return nil, err
	}
	p := &prepared{st: st, heapBase: liveHeap()}
	p.in, err = assemble(sp, st, rec)
	if err != nil {
		return nil, err
	}
	p.start = int64(sp.warmPasses) * st.passLen()
	tw := time.Now()
	runSlice(inProcessLookup(p.in.srv, st), 0, p.start, 1, 1<<30, nil)
	p.warmupS = time.Since(tw).Seconds()
	p.warm = p.in.eng.Snapshot()

	p.fn = inProcessLookup(p.in.srv, st)
	if sp.transport == overHTTP {
		cs := newHTTPClients(p.in.baseURL, clients)
		if rec != nil {
			cs[0].SetTransport(&tracedTransport{
				inner: &http.Transport{MaxIdleConnsPerHost: 2, IdleConnTimeout: 30 * time.Second},
				rec:   rec,
			})
		}
		// Open each client's connection before the window does.
		for _, c := range cs {
			if err := c.Ready(); err != nil {
				p.in.close()
				return nil, fmt.Errorf("daemon not ready: %w", err)
			}
		}
		p.fn = httpLookup(cs, st)
	}
	p.setupS = time.Since(t0).Seconds()
	return p, nil
}

// runEndToEnd measures one workload with tracing off.
func runEndToEnd(sp spec, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{}
	var p *prepared
	var setups []float64
	for i := 0; i < cfg.setups; i++ {
		var prevWarm engine.Metrics
		if p != nil {
			if err := p.in.close(); err != nil {
				return nil, err
			}
			// Copy the counters out and drop the repetition, so the next
			// one's heap baseline does not include it.
			prevWarm = p.warm
			p = nil
		}
		var err error
		if p, err = prepare(sp, cfg, cfg.clients, nil); err != nil {
			return nil, err
		}
		if i > 0 && p.warm != prevWarm {
			res.Violations = append(res.Violations, "the single-client warm-up did not reproduce its counters for the same seed")
		}
		setups = append(setups, p.setupS)
	}
	defer p.in.close()

	minSlices := max(sp.qualitySlices, 10)
	w := runWindow(p.fn, p.in.eng, sp, p.start, cfg.clients, cfg.seconds, minSlices, sp.qualitySlices, nil)
	res.Violations = append(res.Violations, checkWindow(sp, p.in, &w)...)
	res.Attempted, res.Failed = w.reqs, w.failed
	res.EndToEnd = endToEnd(sp, &w, setups, p.heapBase)
	res.Percentile, _ = highestPercentile(len(w.slices[0].latNs))
	if res.Percentile < 99 {
		res.Violations = append(res.Violations, fmt.Sprintf("a slice holds %d latency samples, too few for p99", len(w.slices[0].latNs)))
	}
	res.Correct = len(res.Violations) == 0
	return res, nil
}

// traceInputs is what the traced run hands to perLayer.
type traceInputs struct {
	sp               spec
	traced           *prepared
	warmupS          float64 // of the undecorated instance
	one, many, spans window  // plain 1-client, plain n-client, traced 1-client
	clients          int
	rec              *recorder
	agg              [numSpanKinds]kindTotals
	rootTotal        int64
	livenessCalls    int64
	quality          qualityTally
	flashPlain       flashObserved // observer deltas over the plain 1-client window
	flashTraced      flashObserved // and over the traced window
	mallocs          uint64        // heap allocations during the plain 1-client window
	parseNs          float64
	calibNs          float64
}

// runTraced produces the per-layer metrics: an undecorated instance
// gives the single-client baseline rate and the n-client rate, a
// decorated one records spans for one client. Both start from the same
// warmed state and the same stream position, so their counters after the
// first slice must agree exactly — the live proof that the decorators
// change nothing but time.
func runTraced(sp spec, cfg runConfig) (*workloadResult, error) {
	res := &workloadResult{}
	calibBefore := calibLoop()
	ti := traceInputs{sp: sp, clients: cfg.clients}

	plain, err := prepare(sp, cfg, cfg.clients, nil)
	if err != nil {
		return nil, err
	}
	ti.warmupS = plain.warmupS
	plainWarm := plain.warm
	// cmd/otacached always runs a flash store with the observer
	// server.New attaches, so the baseline carries one too.
	attachFlashObservers(plain.in.eng)
	f0, m0 := observeFlash(plain.in.eng), mallocs()
	ti.one = runWindow(plain.fn, plain.in.eng, sp, plain.start, 1, cfg.seconds/4, 2, 1, nil)
	ti.mallocs = mallocs() - m0
	ti.flashPlain = observeFlash(plain.in.eng).sub(f0)
	ti.many = runWindow(plain.fn, plain.in.eng, sp, plain.start+ti.one.reqs, cfg.clients, cfg.seconds/4, 2, 0, nil)
	res.Violations = append(res.Violations, checkWindow(sp, plain.in, &ti.one)...)
	res.Violations = append(res.Violations, checkWindow(sp, plain.in, &ti.many)...)
	if sp.transport == overHTTP {
		ti.parseNs, err = daemonParseNs(plain.in.baseURL)
		if err != nil {
			res.Violations = append(res.Violations, err.Error())
		}
	}
	if err := plain.in.close(); err != nil {
		return nil, err
	}
	plain = nil // its trace and engine are garbage from here on

	rec := newRecorder()
	ti.rec = rec
	traced, err := prepare(sp, cfg, 1, rec)
	if err != nil {
		return nil, err
	}
	defer traced.in.close()
	ti.traced = traced
	if traced.warm != plainWarm {
		res.Violations = append(res.Violations, "decorated and undecorated warm-up counters differ")
	}
	attachFlashObservers(traced.in.eng)
	ti.quality = newQualityTally(traced, sp)
	// In process the root span is engine.lookup, opened by the server
	// decorator; over HTTP it is the client call, opened here.
	tracedFn := func(w int, pos int64) (result, error) {
		rec.setReq(pos)
		if sp.transport != overHTTP {
			return traced.fn(w, pos)
		}
		rec.begin(spClientLookup)
		r, err := traced.fn(w, pos)
		rec.end()
		return r, err
	}
	f0 = observeFlash(traced.in.eng)
	rec.on.Store(true)
	ti.spans = runWindow(tracedFn, traced.in.eng, sp, traced.start, 1, cfg.seconds/2, 2, 1, ti.quality.observe)
	rec.on.Store(false)
	ti.flashTraced = observeFlash(traced.in.eng).sub(f0)
	ti.agg, ti.rootTotal, ti.livenessCalls = rec.totals()
	res.Violations = append(res.Violations, checkWindow(sp, traced.in, &ti.spans)...)
	if ti.spans.atQuality != ti.one.atQuality {
		res.Violations = append(res.Violations, "decorators are not transparent: counters after the first traced slice differ from the untraced run")
	}
	if n := rec.reqMismatches.Load(); n > 0 {
		res.Violations = append(res.Violations, fmt.Sprintf("%d traced requests overlapped another request", n))
	}
	if r := selfResidual(ti.agg, ti.rootTotal); r > 0.02 {
		res.Violations = append(res.Violations, fmt.Sprintf("layer self times miss the traced total by %.1f%%", 100*r))
	}
	ti.calibNs = (calibBefore + calibLoop()) / 2

	res.PerLayer, res.Breakdown = perLayer(&ti)
	res.Attempted = ti.one.reqs + ti.many.reqs + ti.spans.reqs
	res.Failed = ti.one.failed + ti.many.failed + ti.spans.failed
	res.PerLayer["bench.failed_ops_frac"] = metric{Value: float64(res.Failed) / float64(res.Attempted), Unit: "ratio"}
	res.Correct = len(res.Violations) == 0
	if cfg.outDir != "" {
		if err := writeSpans(filepath.Join(cfg.outDir, "trace-"+sp.name+".jsonl"), rec.spans()); err != nil {
			return nil, err
		}
	}
	return res, nil
}

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// daemonParseNs asks the daemon for its own stage timing: the mean
// request-parse time over the decision-trace ring (/admin/trace; the
// daemon samples 1 request in 16 into a ring of 1024).
func daemonParseNs(baseURL string) (float64, error) {
	hc := http.Client{Transport: &http.Transport{DisableKeepAlives: true}}
	resp, err := hc.Get(baseURL + "/admin/trace")
	if err != nil {
		return 0, fmt.Errorf("fetch /admin/trace: %w", err)
	}
	defer resp.Body.Close()
	var tr server.TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		return 0, fmt.Errorf("decode /admin/trace: %w", err)
	}
	if len(tr.Events) == 0 {
		return 0, fmt.Errorf("/admin/trace holds no events")
	}
	var sum int64
	for _, ev := range tr.Events {
		sum += ev.ParseNs
	}
	return float64(sum) / float64(len(tr.Events)), nil
}
