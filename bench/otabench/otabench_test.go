package main

import (
	"bytes"
	"math"
	"regexp"
	"slices"
	"sort"
	"strings"
	"testing"
)

// quickCfg is the scale the harness tests run at: 3000 photos, windows
// as short as their minimum slice counts allow.
var quickCfg = runConfig{seed: 7, seconds: 0.01, clients: 2, setups: 2}

func TestEpochShiftGivesFreshPopulations(t *testing.T) {
	sp, _ := findWorkload("engine-proposal")
	sp = sp.quick()
	p, err := prepare(sp, quickCfg, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, n := p.st, p.st.passLen()

	seen := map[uint64]int{}
	for epoch := 0; epoch < 3; epoch++ {
		for i := int64(0); i < n; i++ {
			key, _, _, idx := st.at(int64(epoch)*n + i)
			if idx != int(i) {
				t.Fatalf("epoch %d request %d maps to trace index %d", epoch, i, idx)
			}
			if e, ok := seen[key]; ok && e != epoch {
				t.Fatalf("key %d appears in epochs %d and %d", key, e, epoch)
			}
			seen[key] = epoch
		}
	}
	if want := 3 * len(st.tr.Photos); len(seen) > want {
		t.Fatalf("3 epochs use %d keys, more than 3x%d photos", len(seen), len(st.tr.Photos))
	}

	// Every epoch is the same access pattern over fresh keys, so its hit
	// rate must match epoch 0's (the warm-up already filled the cache
	// with a previous population).
	var rates []float64
	pos := p.start
	for epoch := 0; epoch < 3; epoch++ {
		before := p.in.eng.Snapshot()
		runSlice(p.fn, pos, n, 1, 1<<30, nil)
		pos += n
		rates = append(rates, p.in.eng.Snapshot().Sub(before).HitRate())
	}
	for epoch, r := range rates {
		if math.Abs(r-rates[0]) > 0.01 {
			t.Errorf("epoch %d hit rate %.4f, epoch 0 %.4f", epoch, r, rates[0])
		}
	}
}

// TestWorkloadsAtQuickScale runs every workload end to end and traced.
// A traced run fails its own correctness checks unless the decorated
// stack's counters equal the undecorated stack's exactly, both after the
// warm-up and after the first single-client slice, so Correct covers
// decorator transparency; the test then checks that the names emitted
// are the names BENCHMARK.json declares.
func TestWorkloadsAtQuickScale(t *testing.T) {
	var bf benchmarkFile
	if err := readJSONFile("../../BENCHMARK.json", &bf); err != nil {
		t.Fatal(err)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := func(ds []declaredMetric) []string {
		var names []string
		for _, d := range ds {
			if !nameRE.MatchString(d.Name) {
				t.Errorf("declared metric name %q is malformed", d.Name)
			}
			names = append(names, d.Name)
		}
		sort.Strings(names)
		return names
	}
	wantE2E, wantLayers := declared(bf.EndToEnd), declared(bf.PerLayer)

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json declares %d workloads, the tool has %d", len(bf.Workloads), len(workloads))
	}
	for i, sp := range workloads {
		if w := bf.Workloads[i]; w.Name != sp.name || w.Why != sp.why || !nameRE.MatchString(w.Name) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the tool has %q (%q)", i, w.Name, w.Why, sp.name, sp.why)
		}
		t.Run(sp.name, func(t *testing.T) {
			sp := sp.quick()
			e2e, err := runEndToEnd(sp, quickCfg)
			if err != nil {
				t.Fatal(err)
			}
			traced, err := runTraced(sp, quickCfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, res := range []*workloadResult{e2e, traced} {
				if !res.Correct || res.Failed != 0 {
					t.Errorf("correct=%v failed=%d violations=%q", res.Correct, res.Failed, res.Violations)
				}
			}
			if got := sortedKeys(e2e.EndToEnd); !slices.Equal(got, wantE2E) {
				t.Errorf("end-to-end metrics emitted %q, declared %q", got, wantE2E)
			}
			if got := sortedKeys(traced.PerLayer); !slices.Equal(got, wantLayers) {
				t.Errorf("per-layer metrics emitted %q, declared %q", got, wantLayers)
			}
			for name, m := range e2e.EndToEnd {
				// At 3000 photos the engine's heap is within the noise of
				// goroutine stacks; every other metric must be positive.
				if math.IsNaN(m.Value) || (m.Value <= 0 && name != "engine_heap_mb") {
					t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
				}
			}
			// The layers a workload does not have must show as absent.
			zero := func(name string) {
				if v := traced.PerLayer[name].Value; v != 0 {
					t.Errorf("%s = %v on %s, want 0", name, v, sp.name)
				}
			}
			if !sp.flash {
				zero("flash.waf")
				zero("flash.program_ns")
				zero("flash.device_program_ns")
			} else {
				zero("cart.predicts_per_lookup")
			}
			if sp.engineShards == 1 {
				zero("cluster.ring_route_ns")
			}
			if sp.transport != overHTTP {
				zero("server.handler_ns")
			}
		})
	}
}

// TestSelfTimeArithmetic drives the recorder with a scripted clock over
// a hand-built tree:
//
//	engine.lookup            0 ──────────────────────────── 100
//	  cache.get                 10 ── 30
//	  core.decide                        40 ───────── 90
//	    cart.predict                        50 ── 70
//	  flash.device_program                                92 ─ 96
func TestSelfTimeArithmetic(t *testing.T) {
	clock := []int64{0, 10, 30, 40, 50, 70, 90, 92, 96, 100}
	r := &recorder{ring: make([]span, 16)}
	r.now = func() int64 {
		v := clock[0]
		clock = clock[1:]
		return v
	}
	r.setReq(5)
	r.begin(spEngineLookup)
	r.begin(spCacheGet)
	r.end()
	r.begin(spDecide)
	r.begin(spPredict)
	r.end()
	r.end()
	r.begin(spDevProgram)
	r.end()
	r.end()

	agg, root, _ := r.totals()
	want := map[spanKind]kindTotals{
		spCacheGet: {calls: 1, total: 20, self: 20},
		spPredict:  {calls: 1, total: 20, self: 20},
		spDecide:   {calls: 1, total: 50, self: 30, children: 1, desc: 1},
		// The device span runs inside a flash.Store call, which the
		// observer accounts for: it stays in its parent's self time and
		// is not a counted child, but it is a descendant.
		spDevProgram:   {calls: 1, total: 4, self: 4},
		spEngineLookup: {calls: 1, total: 100, self: 30, children: 2, desc: 4},
	}
	for k, w := range want {
		if agg[k] != w {
			t.Errorf("%s: got %+v, want %+v", spanNames[k], agg[k], w)
		}
	}
	if root != 100 {
		t.Errorf("root total %d, want 100", root)
	}
	if res := selfResidual(agg, root); res != 0 {
		t.Errorf("self times miss the root total by %v", res)
	}
	spans := r.spans()
	if len(spans) != 5 {
		t.Fatalf("retained %d spans, want 5", len(spans))
	}
	last := spans[len(spans)-1]
	if last.Kind != spEngineLookup || last.Parent != 0 || last.Req != 5 || last.Start != 0 || last.End != 100 {
		t.Errorf("root span %+v", last)
	}
	if predict := spans[1]; predict.Kind != spPredict || predict.Parent != spans[2].ID {
		t.Errorf("cart.predict %+v is not a child of core.decide %+v", predict, spans[2])
	}
}

func TestPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false}, {20, 50, true}, {99, 50, true}, {100, 90, true},
		{999, 90, true}, {1000, 99, true}, {10000, 99.9, true}, {100000, 99.99, true},
	} {
		if p, ok := highestPercentile(c.n); p != c.want || ok != c.ok {
			t.Errorf("highestPercentile(%d) = %v, %v; want %v, %v", c.n, p, ok, c.want, c.ok)
		}
	}
	sorted := make([]int64, 100)
	for i := range sorted {
		sorted[i] = int64(i + 1)
	}
	if got := percentile(sorted, 50); got != 50.5 {
		t.Errorf("p50 of 1..100 = %v, want 50.5", got)
	}
	if got := percentile(sorted, 99); math.Abs(got-99.01) > 1e-9 {
		t.Errorf("p99 of 1..100 = %v, want 99.01", got)
	}
}

func TestQuartilesMatchPythonStatistics(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(xs)
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	if got := midmean(xs); got != 5.5 {
		t.Errorf("midmean = %v, want 5.5", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	lower := declaredMetric{Name: "lookup_p50_us", Better: "lower", Bound: 0.1}
	higher := declaredMetric{Name: "lookups_per_s", Better: "higher", Bound: 0.1}
	steady := func(v float64) metric { return metric{Value: v, Q1: v * 0.99, Q3: v * 1.01, N: 10} }
	noisy := func(v float64) metric { return metric{Value: v, Q1: v * 0.8, Q3: v * 1.2, N: 10} }
	for _, c := range []struct {
		a, b metric
		d    declaredMetric
		want verdict
	}{
		{steady(100), steady(109), lower, ok},
		{steady(100), steady(111), lower, regressed},
		{steady(100), steady(50), lower, ok},
		{steady(100), steady(91), higher, ok},
		{steady(100), steady(89), higher, regressed},
		{steady(100), noisy(130), lower, unresolved},
		{noisy(100), steady(100), lower, unresolved},
		{metric{Value: 0.5}, metric{Value: 0.56}, lower, regressed},
	} {
		if got := judge(c.a, c.b, c.d); got != c.want {
			t.Errorf("judge(%v -> %v, %s) = %s, want %s", c.a.Value, c.b.Value, c.d.Better, got, c.want)
		}
	}

	bf := &benchmarkFile{Workloads: []declaredWorkload{{Name: "w"}}, EndToEnd: []declaredMetric{lower}}
	doc := func(v float64, failed int64) *document {
		return &document{Workloads: map[string]*workloadResult{"w": {
			Correct: true, Attempted: 100, Failed: failed,
			EndToEnd: map[string]metric{"lookup_p50_us": steady(v)},
		}}}
	}
	var out bytes.Buffer
	if compareDocs(&out, bf, doc(100, 0), doc(105, 0)) {
		t.Errorf("5%% worse within a 10%% bound reported as regressed:\n%s", out.String())
	}
	if !compareDocs(&out, bf, doc(100, 0), doc(120, 0)) {
		t.Error("20% worse not reported as regressed")
	}
	out.Reset()
	if !compareDocs(&out, bf, doc(100, 0), doc(100, 1)) || !strings.Contains(out.String(), "failed_ops_frac") {
		t.Errorf("a newly failing operation not reported as regressed:\n%s", out.String())
	}
}
