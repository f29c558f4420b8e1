package otacache

// The benchmark harness: one testing.B benchmark per table and figure
// of the paper's evaluation, plus micro-benchmarks for the components
// whose costs the paper quotes (t_classify, cache operations).
//
// The figure benchmarks share one experiment environment (built once):
// each bench re-derives its figure from the cached capacity sweep and
// reports the headline values as custom metrics, so
// `go test -bench . -benchmem` regenerates the paper's evaluation and
// prints the numbers that matter next to each benchmark name.
//
// For full text tables, run: go run ./cmd/benchtables

import (
	"sync"
	"testing"

	"otacache/internal/experiments"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/ml/cart"
	"otacache/internal/ml/gbdt"
	"otacache/internal/ml/knn"
	"otacache/internal/mlcore"
	"otacache/internal/sim"
	"otacache/internal/stats"
	"otacache/internal/tier"
	"otacache/internal/trace"
)

var (
	benchOnce sync.Once
	benchEnv  *experiments.Env
	benchErr  error
)

func env(b *testing.B) *experiments.Env {
	benchOnce.Do(func() {
		scale := experiments.QuickScale()
		scale.Photos = 30000
		benchEnv, benchErr = experiments.NewEnv(scale)
	})
	if benchErr != nil {
		b.Fatal(benchErr)
	}
	return benchEnv
}

func grid(b *testing.B) *experiments.GridResult {
	g, err := env(b).Grid()
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// BenchmarkTraceCalibration regenerates the §2.2 workload statistics
// (61.5% one-time objects, 25.5% unique-access share).
func BenchmarkTraceCalibration(b *testing.B) {
	e := env(b)
	var s trace.Summary
	for i := 0; i < b.N; i++ {
		s = trace.Summarize(e.Trace)
	}
	b.ReportMetric(100*s.OneTimeObjectFraction, "%one-time-objects")
	b.ReportMetric(100*s.UniqueAccessShare, "%unique-accesses")
	b.ReportMetric(100*s.HitRateCap, "%hit-rate-cap")
}

// BenchmarkTable1ClassifierComparison regenerates Table 1 (the
// seven-classifier cross-validated comparison) and reports the chosen
// decision tree's columns.
func BenchmarkTable1ClassifierComparison(b *testing.B) {
	e := env(b)
	var res *experiments.Table1Result
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Table1()
		if err != nil {
			b.Fatal(err)
		}
	}
	row, _ := res.Row("Decision Tree")
	b.ReportMetric(row.Precision, "tree-precision")
	b.ReportMetric(row.Recall, "tree-recall")
	b.ReportMetric(row.Accuracy, "tree-accuracy")
	b.ReportMetric(row.AUC, "tree-auc")
}

// BenchmarkFig2HitRateVsCapacity regenerates Figure 2 and reports the
// Belady-vs-LRU gap at the smallest and largest capacities (the paper:
// ~9% at X shrinking to ~4% at 4X).
func BenchmarkFig2HitRateVsCapacity(b *testing.B) {
	e := env(b)
	var f *experiments.Fig2Result
	var err error
	for i := 0; i < b.N; i++ {
		f, err = e.Fig2()
		if err != nil {
			b.Fatal(err)
		}
	}
	last := len(f.NominalGBs) - 1
	b.ReportMetric(100*(f.Series["belady"][0]-f.Series["lru"][0]), "pp-belady-gap-small")
	b.ReportMetric(100*(f.Series["belady"][last]-f.Series["lru"][last]), "pp-belady-gap-large")
	b.ReportMetric(100*(f.Series["arc"][0]-f.Series["lru"][0]), "pp-arc-over-lru-small")
}

// BenchmarkFig3PhotoTypeMix regenerates the Figure 3 type distribution
// and reports the l5 request share (paper: ~45%).
func BenchmarkFig3PhotoTypeMix(b *testing.B) {
	e := env(b)
	var f *experiments.Fig3Result
	for i := 0; i < b.N; i++ {
		f = e.Fig3()
	}
	b.ReportMetric(100*f.Summary.TypeRequestShare[trace.TypeL5], "%l5-requests")
}

// BenchmarkFig5ClassifierQuality regenerates Figure 5 and reports the
// live classification quality under the LRU criteria at the smallest
// capacity.
func BenchmarkFig5ClassifierQuality(b *testing.B) {
	e := env(b)
	var f *experiments.Fig5Result
	var err error
	for i := 0; i < b.N; i++ {
		f, err = e.Fig5()
		if err != nil {
			b.Fatal(err)
		}
	}
	q := f.Quality["lru"][0]
	b.ReportMetric(100*q.Precision(), "%precision")
	b.ReportMetric(100*q.Recall(), "%recall")
	b.ReportMetric(100*q.Accuracy(), "%accuracy")
}

// figureBench is shared by the Figure 6-10 benchmarks.
func figureBench(b *testing.B, metricIdx int, report func(*experiments.GridResult, experiments.Metric)) {
	g := grid(b)
	m := experiments.FigureMetrics()[metricIdx]
	var out string
	for i := 0; i < b.N; i++ {
		out = g.RenderFigure(m)
	}
	if len(out) == 0 {
		b.Fatal("empty figure")
	}
	report(g, m)
}

// BenchmarkFig6FileHitRate regenerates Figure 6 and reports the
// proposal's hit-rate gain over the originals (paper: LRU +3..17pp,
// FIFO +5..20pp, S3LRU +0.7..4pp).
func BenchmarkFig6FileHitRate(b *testing.B) {
	figureBench(b, 0, func(g *experiments.GridResult, m experiments.Metric) {
		for _, p := range []string{"lru", "fifo", "s3lru"} {
			_, hi := g.Improvement(p, m)
			b.ReportMetric(hi, "pp-"+p+"-max-gain")
		}
	})
}

// BenchmarkFig7ByteHitRate regenerates Figure 7 (paper: LRU +4..16pp,
// FIFO +6..20pp byte hit rate).
func BenchmarkFig7ByteHitRate(b *testing.B) {
	figureBench(b, 1, func(g *experiments.GridResult, m experiments.Metric) {
		for _, p := range []string{"lru", "fifo"} {
			_, hi := g.Improvement(p, m)
			b.ReportMetric(hi, "pp-"+p+"-max-gain")
		}
	})
}

// BenchmarkFig8FileWriteRate regenerates Figure 8 and reports the
// file-write reduction (paper: LIRS 65..81%, LRU headline 79%).
func BenchmarkFig8FileWriteRate(b *testing.B) {
	figureBench(b, 2, func(g *experiments.GridResult, m experiments.Metric) {
		for _, p := range []string{"lru", "lirs"} {
			lo, hi := g.WriteReduction(p)
			b.ReportMetric(100*lo, "%"+p+"-min-reduction")
			b.ReportMetric(100*hi, "%"+p+"-max-reduction")
		}
	})
}

// BenchmarkFig9ByteWriteRate regenerates Figure 9 (paper: LIRS byte
// writes cut 60..80%).
func BenchmarkFig9ByteWriteRate(b *testing.B) {
	figureBench(b, 3, func(g *experiments.GridResult, m experiments.Metric) {
		orig := g.Cells["lirs"][sim.ModeOriginal]
		prop := g.Cells["lirs"][sim.ModeProposal]
		red := 1 - float64(prop[0].ByteWrites)/float64(orig[0].ByteWrites)
		b.ReportMetric(100*red, "%lirs-byte-reduction-small")
	})
}

// BenchmarkFig10ResponseTime regenerates Figure 10 (paper: FIFO
// -8..-11%, ARC -1.5..-2.5% mean latency).
func BenchmarkFig10ResponseTime(b *testing.B) {
	figureBench(b, 4, func(g *experiments.GridResult, m experiments.Metric) {
		for _, p := range []string{"fifo", "arc"} {
			lo, _ := g.Improvement(p, m)
			b.ReportMetric(lo, "%"+p+"-best-latency-change")
		}
	})
}

// BenchmarkFeatureSelection regenerates the §3.2.2 forward-selection
// walkthrough.
func BenchmarkFeatureSelection(b *testing.B) {
	e := env(b)
	var res *experiments.FeatureSelectionResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.FeatureSelection()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Selected)), "features-selected")
}

// BenchmarkAblations regenerates the design-choice ablation table.
func BenchmarkAblations(b *testing.B) {
	e := env(b)
	var res *experiments.AblationResult
	var err error
	for i := 0; i < b.N; i++ {
		res, err = e.Ablations()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(res.Rows)), "variants")
}

// ---- Micro-benchmarks for the costs the paper quotes ----

// BenchmarkCARTPredict measures one tree prediction — the paper's
// t_classify is 0.4us; a 30-split CART should be far below that.
func BenchmarkCARTPredict(b *testing.B) {
	e := env(b)
	d, err := e.Table1Dataset()
	if err != nil {
		b.Fatal(err)
	}
	tree, err := cart.Train(d, cart.Default(2))
	if err != nil {
		b.Fatal(err)
	}
	x := d.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tree.Predict(x)
	}
	b.ReportMetric(float64(tree.Height()), "tree-height")
}

// BenchmarkCARTTrain measures training the paper's classifier on a
// day's sample (it reports "a few minutes" for theirs; ours is ms).
func BenchmarkCARTTrain(b *testing.B) {
	e := env(b)
	d, err := e.Table1Dataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cart.Train(d, cart.Default(2)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHistoryTable measures the §4.4.2 rectification table.
func BenchmarkHistoryTable(b *testing.B) {
	tbl := NewHistoryTable(4096)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := uint64(i % 16384)
		if _, ok := tbl.Lookup(k); !ok {
			tbl.Insert(k, i)
		}
	}
}

// BenchmarkPolicies measures steady-state Get+Admit throughput per
// replacement policy under a Zipf-like key stream.
func BenchmarkPolicies(b *testing.B) {
	for _, name := range PolicyNames() {
		b.Run(name, func(b *testing.B) {
			next := make([]int, b.N)
			for i := range next {
				next[i] = trace.NoNext
			}
			p, err := NewPolicy(name, 64<<20, next)
			if err != nil {
				b.Fatal(err)
			}
			rng := stats.NewRNG(1)
			z := stats.NewZipf(rng, 0.9, 100000)
			keys := make([]uint64, 65536)
			for i := range keys {
				keys[i] = uint64(z.Sample())
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				k := keys[i&65535]
				if !p.Get(k, i) {
					p.Admit(k, 32<<10, i)
				}
			}
		})
	}
}

// BenchmarkFeatureExtraction measures per-request feature computation.
func BenchmarkFeatureExtraction(b *testing.B) {
	e := env(b)
	ex := features.NewExtractor(e.Trace)
	var buf [features.NumFeatures]float64
	n := len(e.Trace.Requests)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ex.Cursor() >= n {
			b.StopTimer()
			ex = features.NewExtractor(e.Trace)
			b.StartTimer()
		}
		ex.NextInto(ex.Cursor(), buf[:])
	}
}

// BenchmarkCriteriaSolve measures the §4.3 fixed-point solver.
func BenchmarkCriteriaSolve(b *testing.B) {
	e := env(b)
	next := e.Runner.NextAccess()
	capacity := e.CapacityBytes(8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		labeling.Solve(e.Trace, next, capacity, 0.6, 3)
	}
}

// BenchmarkEndToEndSimulation measures whole-trace simulation
// throughput (requests/sec) for LRU in the three modes.
func BenchmarkEndToEndSimulation(b *testing.B) {
	e := env(b)
	for _, mode := range []sim.Mode{sim.ModeOriginal, sim.ModeProposal, sim.ModeIdeal} {
		b.Run(mode.String(), func(b *testing.B) {
			cfg := sim.Config{Policy: "lru", CacheBytes: e.CapacityBytes(8), Mode: mode, Seed: 1}
			var res *sim.Result
			for i := 0; i < b.N; i++ {
				var err error
				res, err = e.Runner.Run(cfg)
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(res.Requests)*float64(b.N)/b.Elapsed().Seconds(), "requests/s")
			b.ReportMetric(100*res.FileHitRate(), "%hit")
		})
	}
}

// BenchmarkAUC measures the rank-based AUC computation.
func BenchmarkAUC(b *testing.B) {
	rng := stats.NewRNG(5)
	n := 10000
	scores := make([]float64, n)
	labels := make([]int, n)
	for i := range scores {
		scores[i] = rng.Float64()
		if rng.Bernoulli(0.4) {
			labels[i] = 1
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mlcore.AUC(scores, labels)
	}
}

// ---- Extension benchmarks ----

// BenchmarkTwoTierHierarchy measures the Figure 1 OC->DC->backend
// simulation end to end and reports the classifier's write cut at the
// OC layer.
func BenchmarkTwoTierHierarchy(b *testing.B) {
	e := env(b)
	fp := float64(e.Trace.TotalBytes())
	cfg := func(k tier.FilterKind) tier.Config {
		return tier.Config{
			OC:   tier.LayerConfig{Policy: "lru", CacheBytes: int64(0.03 * fp), Filter: k},
			DC:   tier.LayerConfig{Policy: "s3lru", CacheBytes: int64(0.12 * fp), Filter: k},
			Seed: 1,
		}
	}
	var plain, filtered *tier.Result
	for i := 0; i < b.N; i++ {
		var err error
		plain, err = tier.Simulate(e.Trace, cfg(tier.AdmitAll))
		if err != nil {
			b.Fatal(err)
		}
		filtered, err = tier.Simulate(e.Trace, cfg(tier.Classifier))
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*(1-float64(filtered.OCWrites)/float64(plain.OCWrites)), "%oc-write-cut")
	b.ReportMetric(100*(filtered.CombinedHitRate()-plain.CombinedHitRate()), "pp-combined-hit-gain")
}

// BenchmarkShardedParallel measures the concurrent sharded cache under
// all CPUs hammering a Zipf keyspace.
func BenchmarkShardedParallel(b *testing.B) {
	s, err := NewShardedPolicy(256<<20, 16, func(c int64) Policy {
		return mustPolicy(b, "lru", c)
	})
	if err != nil {
		b.Fatal(err)
	}
	b.RunParallel(func(pb *testing.PB) {
		rng := stats.NewRNG(uint64(42))
		z := stats.NewZipf(rng, 0.9, 100000)
		i := 0
		for pb.Next() {
			k := uint64(z.Sample())
			if !s.Get(k, i) {
				s.Admit(k, 32<<10, i)
			}
			i++
		}
	})
}

func mustPolicy(b *testing.B, name string, c int64) Policy {
	p, err := NewPolicy(name, c, nil)
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkKNNPredictKDTree measures a k-NN query through the k-d tree
// on a Table 1-sized training set (the brute-force scan this replaces
// is ~50x slower at this size).
func BenchmarkKNNPredictKDTree(b *testing.B) {
	e := env(b)
	d, err := e.Table1Dataset()
	if err != nil {
		b.Fatal(err)
	}
	m, err := knn.Train(d, 15)
	if err != nil {
		b.Fatal(err)
	}
	x := d.X[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(x)
	}
}

// BenchmarkOnlineLogitUpdate measures one incremental learning step of
// the §4.4.3 online alternative.
func BenchmarkOnlineLogitUpdate(b *testing.B) {
	o, err := NewOnlineClassifier(5, 0, -1)
	if err != nil {
		b.Fatal(err)
	}
	rng := stats.NewRNG(3)
	x := []float64{1, 2, 3, 4, 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x[0] = rng.Float64()
		o.Update(x, i&1)
	}
}

// BenchmarkTraceGeneration measures workload synthesis throughput.
func BenchmarkTraceGeneration(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := GenerateTrace(DefaultTraceConfig(uint64(i), 20000)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGBDTTrain measures the extension learner's training cost.
func BenchmarkGBDTTrain(b *testing.B) {
	e := env(b)
	d, err := e.Table1Dataset()
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := gbdt.Train(d, gbdt.Config{Rounds: 30}); err != nil {
			b.Fatal(err)
		}
	}
}
