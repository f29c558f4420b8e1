package main

import (
	"time"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/labeling"
	"otacache/internal/tier"
)

// qualityTally scores the admission decisions of a single-client run
// against the trace's ground truth: request i is one-time when its next
// access (trace.BuildNextAccess, within its own pass — epochs share no
// keys) is more than the criteria's M requests away or never comes. One
// client and one tick per request make that distance the distance the
// history table sees.
type qualityTally struct {
	st   *stream
	crit labeling.Criteria

	misses                   int64
	truePos, falsePos, truth int64 // over misses: predicted one-time & is / & is not; is one-time
	writes, wastedWrites     int64
}

// newQualityTally takes the criteria the layer was built with. An
// admit-all layer solves none, so the same recipe tier.BuildLayer uses
// supplies the M its writes are judged by.
func newQualityTally(p *prepared, sp spec) qualityTally {
	crit := p.in.layer.Criteria
	if sp.filter == tier.AdmitAll {
		h := labeling.EstimateHitRate(p.st.tr, p.in.capacity, 200000)
		crit = labeling.Solve(p.st.tr, p.st.next, p.in.capacity, h, 3).ForPolicy("lru", cache.DefaultLIRRatio)
	}
	return qualityTally{st: p.st, crit: crit}
}

func (q *qualityTally) observe(pos int64, r result) {
	if r.hit {
		return
	}
	idx := int(pos % q.st.passLen())
	oneTime := labeling.IsOneTime(q.st.next, idx, q.crit)
	q.misses++
	if oneTime {
		q.truth++
	}
	if r.predictedOneTime {
		if oneTime {
			q.truePos++
		} else {
			q.falsePos++
		}
	}
	if r.written {
		q.writes++
		if oneTime {
			q.wastedWrites++
		}
	}
}

// flashObserved is the flash.Observer's view of the stores, summed over
// shards: call counts and total nanoseconds of host programs (each
// including any collection it triggered), collection passes, and extent
// reads.
type flashObserved struct {
	programs, programNs int64
	gcPasses, gcNs      int64
	reads, readNs       int64
}

func (f flashObserved) sub(o flashObserved) flashObserved {
	return flashObserved{
		f.programs - o.programs, f.programNs - o.programNs,
		f.gcPasses - o.gcPasses, f.gcNs - o.gcNs,
		f.reads - o.reads, f.readNs - o.readNs,
	}
}

// attachFlashObservers hooks flash.Store.SetObserver on every shard that
// has a store, timing every read: the store is a concrete type the
// engine calls directly, so its public observer hook is the only way to
// see its time.
func attachFlashObservers(eng engine.Server) {
	for _, sh := range eng.Shards() {
		if fs := sh.Flash(); fs != nil {
			fs.SetObserver(flash.NewObserver(time.Now, 1))
		}
	}
}

func observeFlash(eng engine.Server) flashObserved {
	var f flashObserved
	for _, sh := range eng.Shards() {
		fs := sh.Flash()
		if fs == nil || fs.Observer() == nil {
			continue
		}
		o := fs.Observer()
		p, g, r := o.Program.Snapshot(), o.GC.Snapshot(), o.Read.Snapshot()
		f.programs += int64(p.Count)
		f.programNs += p.Sum
		f.gcPasses += int64(g.Count)
		f.gcNs += g.Sum
		f.reads += int64(r.Count)
		f.readNs += r.Sum
	}
	return f
}

func div(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics from one traced run. A layer
// that the workload does not have reports 0 calls and 0 ns.
//
// Times are means per call with the cost of recording taken out: a span
// appears emptyDur longer than the call it wraps, and every span closed
// inside another adds emptyCost to it (see recorder.calibrate).
func perLayer(ti *traceInputs) (map[string]metric, map[string]float64) {
	agg, rec := ti.agg, ti.rec
	d0, c0 := rec.emptyDur, rec.emptyCost
	self := func(k spanKind) float64 { // Σ self time of kind k, corrected
		a := agg[k]
		return max(0, float64(a.self)-float64(a.calls)*d0-float64(a.children)*(c0-d0))
	}
	incl := func(k spanKind) float64 { // Σ duration of kind k, corrected
		a := agg[k]
		return max(0, float64(a.total)-float64(a.calls)*d0-float64(a.desc)*c0)
	}
	calls := func(k spanKind) float64 { return float64(agg[k].calls) }
	lookups := calls(spEngineLookup)

	// The flash store's calls sit inside engine.lookup's self time; its
	// observer says how much of that is the store's. Inside the store,
	// the spans of insideFlashStore kinds say how much of the store's
	// time went to the device and to the liveness oracle; liveness is
	// timed on a sample and scaled to all calls.
	ft := ti.flashTraced
	storeNs := float64(ft.programNs + ft.readNs)
	livenessCalls := float64(ti.livenessCalls)
	livenessNs := div(incl(spFlashLiveness), calls(spFlashLiveness)) * livenessCalls
	deviceNs := incl(spDevProgram) + incl(spDevRead) + incl(spDevErase)
	var recordedInside float64
	for k := spanKind(0); k < numSpanKinds; k++ {
		if insideFlashStore[k] {
			recordedInside += calls(k)
		}
	}
	engineSelf := max(0, self(spEngineLookup)-storeNs) + incl(spNextTick)
	storeSelf := max(0, storeNs-recordedInside*c0-livenessNs-deviceNs)

	ns := func(v float64) metric { return metric{Value: v, Unit: "ns"} }
	ratio := func(v float64) metric { return metric{Value: v, Unit: "ratio"} }
	count := func(v float64) metric { return metric{Value: v, Unit: "count"} }
	secs := func(v float64) metric { return metric{Value: v, Unit: "s"} }

	d := ti.spans.after.Sub(ti.spans.before)
	q := &ti.quality
	rate := func(w *window) float64 { return div(float64(w.reqs), float64(w.wallNs)/1e9) }
	fp := ti.flashPlain

	m := map[string]metric{
		"trace.generate_s":              secs(ti.traced.st.generateS),
		"features.extract_s":            secs(ti.traced.st.extractS),
		"tier.build_layer_s":            secs(ti.traced.in.buildLayerS),
		"bench.warmup_s":                secs(ti.warmupS),
		"bench.calib_ns":                ns(ti.calibNs),
		"bench.span_cost_ns":            ns(c0),
		"bench.self_time_residual_frac": ratio(selfResidual(agg, ti.rootTotal)),
		"bench.trace_overhead_frac":     ratio(div(rate(&ti.one), rate(&ti.spans)) - 1),
		"bench.untraced_lookup_ns":      ns(div(1e9, rate(&ti.one))),

		"cluster.ring_route_ns": ns(div(incl(spRingRoute), calls(spRingRoute))),

		"cache.get_ns":              ns(div(incl(spCacheGet), calls(spCacheGet))),
		"cache.admit_ns":            ns(div(incl(spCacheAdmit), calls(spCacheAdmit))),
		"cache.contains_per_lookup": ratio(div(calls(spCacheContains)+livenessCalls, lookups)),

		"cart.predict_ns":          ns(div(incl(spPredict), calls(spPredict))),
		"cart.predicts_per_lookup": ratio(div(calls(spPredict), lookups)),

		"core.decide_ns":           ns(div(incl(spDecide), calls(spDecide))),
		"core.decide_self_ns":      ns(div(self(spDecide), calls(spDecide))),
		"core.bypass_frac":         ratio(div(float64(d.Bypassed), float64(d.Misses))),
		"core.rectified_per_kmiss": ratio(div(1000*float64(d.Rectified), float64(d.Misses))),
		"core.onetime_precision":   ratio(div(float64(q.truePos), float64(q.truePos+q.falsePos))),
		"core.onetime_recall":      ratio(div(float64(q.truePos), float64(q.truth))),
		"core.wasted_write_frac":   ratio(div(float64(q.wastedWrites), float64(q.writes))),

		"engine.lookup_ns":       ns(div(incl(spEngineLookup)+incl(spNextTick), lookups)),
		"engine.self_ns":         ns(div(engineSelf, lookups)),
		"engine.scaling_eff":     ratio(div(rate(&ti.many), float64(ti.clients)*rate(&ti.one))),
		"engine.file_hit_rate":   ratio(d.HitRate()),
		"engine.file_write_rate": ratio(d.WriteRate()),
		"engine.degraded":        count(float64(d.Degraded)),

		"flash.waf":                ratio(flashWAF(d)),
		"flash.program_ns":         ns(div(float64(fp.programNs), float64(fp.programs))),
		"flash.gc_pass_ns":         ns(div(float64(fp.gcNs), float64(fp.gcPasses))),
		"flash.gc_passes":          count(float64(ft.gcPasses)),
		"flash.gc_relocated_mb":    {Value: float64(d.FlashGCBytes) / (1 << 20), Unit: "MiB"},
		"flash.erases_per_mlookup": ratio(div(1e6*float64(d.FlashErases), float64(d.Requests))),
		"flash.read_ns":            ns(div(float64(fp.readNs), float64(fp.reads))),
		"flash.device_program_ns":  ns(div(incl(spDevProgram), calls(spDevProgram))),
		"flash.dropped":            count(float64(flashDropped(ti.traced.in.eng))),

		"server.handler_ns":      ns(div(incl(spHandler), calls(spHandler))),
		"server.handler_self_ns": ns(div(self(spHandler), calls(spHandler))),
		"server.parse_ns":        ns(ti.parseNs),
		"server.wire_ns":         ns(div(self(spRoundTrip), calls(spRoundTrip))),
		"server.client_ns":       ns(div(self(spClientLookup), calls(spClientLookup))),
		"server.allocs_per_req":  ratio(0),
	}
	if ti.sp.transport == overHTTP {
		m["server.allocs_per_req"] = ratio(div(float64(ti.mallocs), float64(ti.one.reqs)))
	}

	// Self time per lookup by layer; by construction the parts add up to
	// the traced wall time of one request, less the recording cost.
	breakdown := map[string]float64{
		"server.client":  div(self(spClientLookup), lookups),
		"server.wire":    div(self(spRoundTrip), lookups),
		"server.handler": div(self(spHandler), lookups),
		"engine":         div(engineSelf, lookups),
		"cluster.ring":   div(self(spRingRoute), lookups),
		"cache.get":      div(self(spCacheGet), lookups),
		"cache.admit":    div(self(spCacheAdmit), lookups),
		"cache.contains": div(self(spCacheContains), lookups),
		"core.decide":    div(self(spDecide), lookups),
		"cart.predict":   div(self(spPredict), lookups),
		"flash.store":    div(storeSelf, lookups),
		"flash.liveness": div(livenessNs, lookups),
		"flash.device":   div(deviceNs, lookups),
	}
	var total float64
	for _, v := range breakdown {
		total += v
	}
	breakdown["total"] = total
	return m, breakdown
}

// flashWAF is the window's measured write amplification, 0 (not the
// log-structured floor of 1) when no store wrote anything.
func flashWAF(d engine.Metrics) float64 {
	if d.FlashHostBytes == 0 {
		return 0
	}
	return d.FlashWAF()
}

func flashDropped(eng engine.Server) (n int64) {
	for _, sh := range eng.Shards() {
		if fs := sh.Flash(); fs != nil {
			n += fs.Stats().Dropped
		}
	}
	return n
}
