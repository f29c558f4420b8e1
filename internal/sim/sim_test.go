package sim

import (
	"math"
	"sync"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/mlcore"
	"otacache/internal/trace"
)

// Shared small trace for the package's tests.
var (
	simTraceOnce sync.Once
	simTrace     *trace.Trace
	simRunner    *Runner
)

func runner(t testing.TB) *Runner {
	simTraceOnce.Do(func() {
		simTrace = trace.MustGenerate(trace.DefaultConfig(21, 25000))
		simRunner = NewRunner(simTrace)
	})
	return simRunner
}

// capFor returns a capacity sized to a fraction of the trace footprint,
// so tests scale with the test trace.
func capFor(t testing.TB, frac float64) int64 {
	r := runner(t)
	return int64(float64(r.Trace().TotalBytes()) * frac)
}

func TestRunOriginalLRU(t *testing.T) {
	r := runner(t)
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.2), Mode: ModeOriginal})
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(r.Trace().Requests) {
		t.Fatalf("requests = %d", res.Requests)
	}
	hr := res.FileHitRate()
	if hr <= 0.1 || hr >= 0.745 {
		t.Fatalf("LRU hit rate = %v outside plausible band", hr)
	}
	// Original admits every miss: writes == misses (all objects fit).
	if res.FileWrites != int64(res.Requests)-res.FileHits {
		t.Fatalf("writes %d != misses %d", res.FileWrites, int64(res.Requests)-res.FileHits)
	}
	if res.Bypassed != 0 {
		t.Fatal("original mode must not bypass")
	}
	if res.ByteHitRate() <= 0 || res.ByteWriteRate() <= 0 {
		t.Fatal("byte rates must be positive")
	}
}

func TestProposalReducesWritesAndImprovesHits(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.15)
	orig, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeOriginal})
	if err != nil {
		t.Fatal(err)
	}
	prop, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// The headline claims (abstract): hit rate up, writes down a lot.
	if prop.FileWrites >= orig.FileWrites {
		t.Fatalf("proposal writes %d >= original %d", prop.FileWrites, orig.FileWrites)
	}
	reduction := 1 - float64(prop.FileWrites)/float64(orig.FileWrites)
	if reduction < 0.3 {
		t.Fatalf("write reduction only %.1f%%", reduction*100)
	}
	if prop.FileHitRate() < orig.FileHitRate() {
		t.Fatalf("proposal hit rate %.4f < original %.4f", prop.FileHitRate(), orig.FileHitRate())
	}
	if prop.Bypassed == 0 {
		t.Fatal("proposal must bypass some misses")
	}
	if prop.MeanLatencyUs >= orig.MeanLatencyUs {
		t.Fatalf("proposal latency %v >= original %v", prop.MeanLatencyUs, orig.MeanLatencyUs)
	}
}

func TestIdealBeatsProposal(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.15)
	prop, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	ideal, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeIdeal})
	if err != nil {
		t.Fatal(err)
	}
	if ideal.FileHitRate()+1e-9 < prop.FileHitRate() {
		t.Fatalf("ideal %.4f below proposal %.4f", ideal.FileHitRate(), prop.FileHitRate())
	}
	// The oracle's quality must be perfect.
	q := ideal.Quality.Overall
	if q.FP != 0 || q.FN != 0 {
		t.Fatalf("oracle misclassified: %+v", q)
	}
	if q.Accuracy() != 1 {
		t.Fatalf("oracle accuracy = %v", q.Accuracy())
	}
}

func TestBeladyUpperBound(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.15)
	var rates []float64
	for _, p := range []string{"lru", "fifo", "belady"} {
		res, err := r.Run(Config{Policy: p, CacheBytes: capacity, Mode: ModeOriginal})
		if err != nil {
			t.Fatal(err)
		}
		rates = append(rates, res.FileHitRate())
	}
	if rates[2] < rates[0] || rates[2] < rates[1] {
		t.Fatalf("belady %.4f below lru %.4f / fifo %.4f", rates[2], rates[0], rates[1])
	}
}

func TestProposalClassifierQuality(t *testing.T) {
	r := runner(t)
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.15), Mode: ModeProposal, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	q := res.Quality.Overall
	if q.Total() == 0 {
		t.Fatal("no quality samples recorded")
	}
	// The cost matrix (v=2) deliberately trades recall for precision:
	// the paper's ">80%" claim is about not wrongly bypassing reused
	// photos. Assert that, plus reasonable overall accuracy.
	if q.Precision() < 0.8 {
		t.Fatalf("precision = %.3f, want >= 0.8 (paper: >0.8)", q.Precision())
	}
	if acc := q.Accuracy(); acc < 0.62 {
		t.Fatalf("classifier accuracy = %.3f", acc)
	}
	// After the warm-up days the live accuracy must recover to ~0.7+.
	var warm mlcore.Confusion
	for d := 2; d < len(res.Quality.Daily); d++ {
		warm.TP += res.Quality.Daily[d].TP
		warm.FP += res.Quality.Daily[d].FP
		warm.TN += res.Quality.Daily[d].TN
		warm.FN += res.Quality.Daily[d].FN
	}
	if warm.Total() > 0 && warm.Accuracy() < 0.68 {
		t.Fatalf("post-warmup accuracy = %.3f", warm.Accuracy())
	}
	// Daily entries populated.
	daySamples := 0
	for _, d := range res.Quality.Daily {
		daySamples += d.Total()
	}
	if daySamples != q.Total() {
		t.Fatalf("daily confusions (%d) do not sum to overall (%d)", daySamples, q.Total())
	}
}

func TestRetrainingHappensDaily(t *testing.T) {
	r := runner(t)
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.15), Mode: ModeProposal, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	days := int(r.Trace().Horizon / 86400)
	if res.Retrainings < days-2 {
		t.Fatalf("retrainings = %d for a %d-day trace", res.Retrainings, days)
	}
	// Disabled retraining.
	res2, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.15), Mode: ModeProposal, Seed: 3, RetrainHour: -1})
	if err != nil {
		t.Fatal(err)
	}
	if res2.Retrainings != 0 {
		t.Fatalf("retrainings = %d with retraining disabled", res2.Retrainings)
	}
}

func TestRetrainHourSentinels(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.15)

	// Zero value: the paper's 05:00 default.
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if res.Config.RetrainHour != RetrainHourDefault {
		t.Fatalf("default RetrainHour = %d, want %d", res.Config.RetrainHour, RetrainHourDefault)
	}

	// RetrainMidnight: a 00:00 retrain, which the old normalization
	// silently rewrote to 05:00.
	mid, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 3, RetrainHour: RetrainMidnight})
	if err != nil {
		t.Fatal(err)
	}
	if mid.Config.RetrainHour != 0 {
		t.Fatalf("RetrainMidnight normalized to %d, want 0", mid.Config.RetrainHour)
	}
	days := int(r.Trace().Horizon / 86400)
	if mid.Retrainings < days-2 {
		t.Fatalf("midnight retraining ran %d times over %d days", mid.Retrainings, days)
	}
	// A midnight schedule trains on different 24 h windows than 05:00,
	// so the two runs must actually differ.
	if mid.Retrainings == res.Retrainings && mid.FileHits == res.FileHits && mid.Bypassed == res.Bypassed {
		t.Fatal("midnight run indistinguishable from the 05:00 default")
	}

	// Explicit in-range hours are preserved.
	at13, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 3, RetrainHour: 13})
	if err != nil {
		t.Fatal(err)
	}
	if at13.Config.RetrainHour != 13 {
		t.Fatalf("RetrainHour 13 normalized to %d", at13.Config.RetrainHour)
	}

	// Out-of-range hours are rejected instead of silently accepted.
	for _, bad := range []int{-3, 25, 99} {
		if _, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 3, RetrainHour: bad}); err == nil {
			t.Fatalf("RetrainHour %d must error", bad)
		}
	}

	// RetrainDisabled still disables.
	off, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 3, RetrainHour: RetrainDisabled})
	if err != nil {
		t.Fatal(err)
	}
	if off.Retrainings != 0 {
		t.Fatalf("retrainings = %d with RetrainDisabled", off.Retrainings)
	}
}

func TestHistoryTableRectifies(t *testing.T) {
	r := runner(t)
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.15), Mode: ModeProposal, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if res.Rectified == 0 {
		t.Fatal("history table never rectified a misprediction")
	}
	noTable, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.15), Mode: ModeProposal, Seed: 4, DisableHistoryTable: true})
	if err != nil {
		t.Fatal(err)
	}
	if noTable.Rectified != 0 {
		t.Fatal("rectifications without a table")
	}
}

func TestLIRSCriteriaSmaller(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.15)
	lru := r.Criteria(Config{Policy: "lru", CacheBytes: capacity, MIterations: 3})
	lirs := r.Criteria(Config{Policy: "lirs", CacheBytes: capacity, MIterations: 3})
	if lirs.M >= lru.M {
		t.Fatalf("M_LIRS (%d) must be below M_LRU (%d)", lirs.M, lru.M)
	}
	want := int(float64(lru.M) * cache.DefaultLIRRatio)
	if lirs.M != want {
		t.Fatalf("M_LIRS = %d, want %d", lirs.M, want)
	}
}

func TestAllPoliciesAllModes(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.2)
	for _, p := range cache.Names() {
		for _, m := range []Mode{ModeOriginal, ModeProposal, ModeIdeal} {
			res, err := r.Run(Config{Policy: p, CacheBytes: capacity, Mode: m, Seed: 5})
			if err != nil {
				t.Fatalf("%s/%s: %v", p, m, err)
			}
			if hr := res.FileHitRate(); hr < 0 || hr > 0.745+1e-9 {
				t.Fatalf("%s/%s: hit rate %v out of band", p, m, hr)
			}
			if res.FileWrites > int64(res.Requests) {
				t.Fatalf("%s/%s: more writes than requests", p, m)
			}
			if res.MeanLatencyUs <= 0 {
				t.Fatalf("%s/%s: nonpositive latency", p, m)
			}
		}
	}
}

func TestLatencyModelEquations(t *testing.T) {
	m := DefaultLatency()
	if m.HitCost() != 101 {
		t.Fatalf("hit cost = %v, want 101us", m.HitCost())
	}
	if m.MissCost(false) != 3001 {
		t.Fatalf("original miss = %v, want 3001us", m.MissCost(false))
	}
	if math.Abs(m.MissCost(true)-3001.4) > 1e-9 {
		t.Fatalf("proposal miss = %v, want 3001.4us", m.MissCost(true))
	}
	var z LatencyModel
	z.normalize()
	if z != DefaultLatency() {
		t.Fatal("zero model must normalize to defaults")
	}
}

func TestRunErrors(t *testing.T) {
	r := runner(t)
	if _, err := r.Run(Config{Policy: "nope", CacheBytes: 1 << 20}); err == nil {
		t.Fatal("unknown policy must error")
	}
	if _, err := r.Run(Config{Policy: "lru", CacheBytes: 0}); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := r.Run(Config{Policy: "lru", CacheBytes: 1 << 20, Mode: Mode(99)}); err == nil {
		t.Fatal("unknown mode must error")
	}
}

func TestSweepMatchesSequential(t *testing.T) {
	r := runner(t)
	cfgs := Grid([]string{"lru", "fifo"}, []Mode{ModeOriginal, ModeIdeal},
		[]int64{capFor(t, 0.1), capFor(t, 0.3)}, Config{})
	par, err := r.Sweep(cfgs, 4)
	if err != nil {
		t.Fatal(err)
	}
	for i, cfg := range cfgs {
		seq, err := r.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if par[i].FileHits != seq.FileHits || par[i].FileWrites != seq.FileWrites {
			t.Fatalf("config %d: parallel result differs from sequential", i)
		}
	}
}

func TestSweepPropagatesErrors(t *testing.T) {
	r := runner(t)
	cfgs := []Config{{Policy: "lru", CacheBytes: 1 << 20}, {Policy: "bad", CacheBytes: 1}}
	if _, err := r.Sweep(cfgs, 2); err == nil {
		t.Fatal("sweep must surface config errors")
	}
}

func TestCapacitySweepAndGrid(t *testing.T) {
	caps := []int64{1, 2, 3}
	cfgs := CapacitySweep(Config{Policy: "lru"}, caps)
	if len(cfgs) != 3 || cfgs[2].CacheBytes != 3 || cfgs[0].Policy != "lru" {
		t.Fatalf("capacity sweep wrong: %+v", cfgs)
	}
	g := Grid([]string{"a", "b"}, []Mode{ModeOriginal, ModeProposal, ModeIdeal}, caps, Config{})
	if len(g) != 18 {
		t.Fatalf("grid size = %d, want 18", len(g))
	}
}

func TestModeString(t *testing.T) {
	if ModeOriginal.String() != "original" || ModeProposal.String() != "proposal" || ModeIdeal.String() != "ideal" {
		t.Fatal("mode names")
	}
}

func TestHitRateMonotoneInCapacity(t *testing.T) {
	r := runner(t)
	prev := -1.0
	for _, frac := range []float64{0.05, 0.15, 0.4, 0.9} {
		res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, frac), Mode: ModeOriginal})
		if err != nil {
			t.Fatal(err)
		}
		hr := res.FileHitRate()
		if hr < prev-0.01 {
			t.Fatalf("hit rate dropped with capacity: %v -> %v", prev, hr)
		}
		prev = hr
	}
}

func TestOnlineLearningMode(t *testing.T) {
	r := runner(t)
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.1), Mode: ModeProposal, Seed: 6, OnlineLearning: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.Retrainings != 0 {
		t.Fatal("online mode must not run batch retraining")
	}
	if res.Bypassed == 0 {
		t.Fatal("online model never learned to bypass")
	}
	// It must still beat admit-everything on writes.
	orig, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.1), Mode: ModeOriginal})
	if err != nil {
		t.Fatal(err)
	}
	if res.FileWrites >= orig.FileWrites {
		t.Fatalf("online writes %d >= original %d", res.FileWrites, orig.FileWrites)
	}
}

func TestLatencyAccountingExact(t *testing.T) {
	// Mean latency must equal the closed-form Eq. 3 computed from the
	// run's own hit/miss counts.
	r := runner(t)
	for _, mode := range []Mode{ModeOriginal, ModeIdeal} {
		res, err := r.Run(Config{Policy: "fifo", CacheBytes: capFor(t, 0.1), Mode: mode})
		if err != nil {
			t.Fatal(err)
		}
		lat := res.Config.Latency
		hits := float64(res.FileHits)
		misses := float64(res.Requests) - hits
		want := (hits*lat.HitCost() + misses*lat.MissCost(mode != ModeOriginal)) / float64(res.Requests)
		if math.Abs(res.MeanLatencyUs-want) > 1e-6 {
			t.Fatalf("%s: latency %.6f != closed form %.6f", mode, res.MeanLatencyUs, want)
		}
	}
}

func TestWriteAccountingConsistent(t *testing.T) {
	// writes + bypasses == misses in filtered modes (all objects fit).
	r := runner(t)
	res, err := r.Run(Config{Policy: "lru", CacheBytes: capFor(t, 0.1), Mode: ModeIdeal})
	if err != nil {
		t.Fatal(err)
	}
	misses := int64(res.Requests) - res.FileHits
	if res.FileWrites+res.Bypassed != misses {
		t.Fatalf("writes %d + bypassed %d != misses %d", res.FileWrites, res.Bypassed, misses)
	}
	// Quality totals equal misses too (every miss is classified).
	if int64(res.Quality.Overall.Total()) != misses {
		t.Fatalf("quality total %d != misses %d", res.Quality.Overall.Total(), misses)
	}
}

func TestScoreThresholdTradesRecallForPrecision(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.1)
	run := func(th float64) *Result {
		res, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal,
			Seed: 8, CostV: 1, ScoreThreshold: th})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	loose := run(0.3)
	strict := run(0.9)
	if strict.Quality.Overall.Precision()+0.01 < loose.Quality.Overall.Precision() {
		t.Fatalf("higher threshold lowered precision: %.3f vs %.3f",
			strict.Quality.Overall.Precision(), loose.Quality.Overall.Precision())
	}
	if strict.Bypassed >= loose.Bypassed {
		t.Fatalf("higher threshold must bypass less: %d vs %d", strict.Bypassed, loose.Bypassed)
	}
}

func TestSizeAwareLatency(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.1)
	base, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeOriginal})
	if err != nil {
		t.Fatal(err)
	}
	lat := DefaultLatency()
	lat.SSDTransferUsPerKB = 0.5
	lat.HDDTransferUsPerKB = 2
	aware, err := r.Run(Config{Policy: "lru", CacheBytes: capacity, Mode: ModeOriginal, Latency: lat})
	if err != nil {
		t.Fatal(err)
	}
	if aware.MeanLatencyUs <= base.MeanLatencyUs {
		t.Fatalf("transfer terms must add latency: %v vs %v", aware.MeanLatencyUs, base.MeanLatencyUs)
	}
	// Closed form: mean extra = (hitBytes*0.5 + missBytes*2)/1024/N.
	hitKB := float64(aware.ByteHits) / 1024
	missKB := float64(aware.TotalBytes-aware.ByteHits) / 1024
	wantExtra := (hitKB*0.5 + missKB*2) / float64(aware.Requests)
	gotExtra := aware.MeanLatencyUs - base.MeanLatencyUs
	if math.Abs(gotExtra-wantExtra) > 1e-6 {
		t.Fatalf("size-aware latency delta %.6f != closed form %.6f", gotExtra, wantExtra)
	}
}
