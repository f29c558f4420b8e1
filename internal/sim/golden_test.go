package sim

import (
	"fmt"
	"reflect"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/tier"
)

// seedRun is a frozen, verbatim copy of the monolithic Runner.Run loop
// this repo seeded with (pre-Engine refactor). It is the golden
// reference: the staged, Engine-driven Run must reproduce its Results
// bit for bit. Do not "fix" or modernize this function — its value is
// that it does not change.
func seedRun(r *Runner, cfg Config) (*Result, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	policy, err := cache.New(cfg.Policy, cfg.CacheBytes, r.next)
	if err != nil {
		return nil, err
	}

	res := &Result{Config: cfg, Requests: len(r.tr.Requests)}
	days := int(r.tr.Horizon/86400) + 1
	res.Quality.Daily = make([]mlcore.Confusion, days)

	var filter core.Filter = core.AdmitAll{}
	var labels []int
	var extractor *features.Extractor
	var samples *core.SampleBuffer
	var admission *core.ClassifierAdmission
	var onlineClf *core.OnlineLogit

	switch cfg.Mode {
	case ModeOriginal:
		// nothing to prepare
	case ModeIdeal:
		res.Criteria = r.Criteria(cfg)
		labels = labeling.Labels(r.next, res.Criteria)
		filter = core.NewOracle(r.next, res.Criteria)
	case ModeDoorkeeper:
		res.Criteria = r.Criteria(cfg)
		labels = labeling.Labels(r.next, res.Criteria)
		width := int(cfg.CacheBytes / r.tr.MeanPhotoSize())
		if width < 1024 {
			width = 1024
		}
		f, err := core.NewFrequencyAdmission(width, 1)
		if err != nil {
			return nil, err
		}
		filter = f
	case ModeProposal:
		res.Criteria = r.Criteria(cfg)
		labels = labeling.Labels(r.next, res.Criteria)
		var table *core.HistoryTable
		if !cfg.DisableHistoryTable {
			table = core.NewHistoryTable(core.TableCapacity(res.Criteria))
		}
		var clf mlcore.Classifier
		if cfg.OnlineLearning {
			online, err := core.NewOnlineLogit(len(cfg.FeatureCols), 0, -1)
			if err != nil {
				return nil, err
			}
			onlineClf = online
			clf = online
		} else {
			var err error
			clf, err = r.bootstrapClassifier(cfg, labels)
			if err != nil {
				return nil, err
			}
		}
		admission, err = core.NewClassifierAdmission(clf, table, res.Criteria)
		if err != nil {
			return nil, err
		}
		if cfg.ScoreThreshold > 0 {
			admission.SetScoreThreshold(cfg.ScoreThreshold)
		}
		filter = admission
		extractor = features.NewExtractor(r.tr)
		samples = core.NewSampleBuffer(cfg.SamplesPerMinute, 24*3600)
	default:
		return nil, fmt.Errorf("sim: unknown mode %d", cfg.Mode)
	}

	classified := cfg.Mode != ModeOriginal
	var latencySum float64
	hitCost := cfg.Latency.HitCost()
	missCost := cfg.Latency.MissCost(classified)
	sizeAware := cfg.Latency.SizeAware()

	var feat [features.NumFeatures]float64
	nextRetrain := int64(86400 + cfg.RetrainHour*3600) // first 05:00 after day 0
	if cfg.RetrainHour < 0 {
		nextRetrain = int64(1) << 62
	}

	for i := range r.tr.Requests {
		req := &r.tr.Requests[i]
		size := r.tr.Photos[req.Photo].Size
		key := uint64(req.Photo)
		res.TotalBytes += size

		var proj []float64
		if extractor != nil {
			extractor.NextInto(i, feat[:])
			proj = project(feat[:], cfg.FeatureCols)
			if onlineClf == nil {
				samples.Offer(req.Time, proj, labels[i])
				if req.Time >= nextRetrain {
					r.retrain(cfg, admission, samples, req.Time, res)
					nextRetrain += 86400
				}
			}
		}

		if policy.Get(key, i) {
			res.FileHits++
			res.ByteHits += size
			if sizeAware {
				latencySum += cfg.Latency.HitCostFor(size)
			} else {
				latencySum += hitCost
			}
			if onlineClf != nil {
				onlineClf.Update(proj, labels[i])
			}
			continue
		}
		if sizeAware {
			latencySum += cfg.Latency.MissCostFor(classified, size)
		} else {
			latencySum += missCost
		}

		decision := filter.Decide(key, i, proj)
		if onlineClf != nil {
			onlineClf.Update(proj, labels[i])
		}
		if classified {
			day := int(req.Time / 86400)
			predicted := mlcore.Negative
			if decision.PredictedOneTime {
				predicted = mlcore.Positive
			}
			res.Quality.Overall.Add(labels[i], predicted)
			if day >= 0 && day < len(res.Quality.Daily) {
				res.Quality.Daily[day].Add(labels[i], predicted)
			}
			if decision.Rectified {
				res.Rectified++
			}
		}
		if !decision.Admit {
			res.Bypassed++
			continue
		}
		policy.Admit(key, size, i)
		if policy.Contains(key) {
			res.FileWrites++
			res.ByteWrites += size
			if labels != nil && labels[i] == mlcore.Positive {
				res.WastedWrites++
			}
		}
	}
	if res.Requests > 0 {
		res.MeanLatencyUs = latencySum / float64(res.Requests)
	}
	return res, nil
}

// bootstrapClassifier and project are the seed's helpers; both now live
// in the admission code the simulator shares with the serving layer.
func (r *Runner) bootstrapClassifier(cfg Config, labels []int) (mlcore.Classifier, error) {
	return tier.Bootstrap(r.tr, labels, cfg.spec())
}

func project(full []float64, cols []int) []float64 { return tier.Project(full, cols) }

// TestGoldenEquivalence proves the Engine-driven staged Run reproduces
// the seed implementation's Result exactly — every counter, the float
// latency sum bit for bit, the per-day quality matrices — for all
// admission modes over representative policies on the fixed-seed test
// trace.
func TestGoldenEquivalence(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.15)
	for _, policy := range []string{"lru", "arc", "lirs"} {
		for _, mode := range []Mode{ModeOriginal, ModeProposal, ModeIdeal, ModeDoorkeeper} {
			cfg := Config{Policy: policy, CacheBytes: capacity, Mode: mode, Seed: 7}
			want, err := seedRun(r, cfg)
			if err != nil {
				t.Fatalf("%s/%s: seed: %v", policy, mode, err)
			}
			got, err := r.Run(cfg)
			if err != nil {
				t.Fatalf("%s/%s: refactored: %v", policy, mode, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s/%s: refactored Run diverges from seed:\n got: %+v\nwant: %+v",
					policy, mode, got, want)
			}
		}
	}
}

// TestGoldenEquivalenceVariants covers the configuration corners the
// grid above misses: online learning, disabled history table, score
// thresholds, size-aware latency, disabled retraining.
func TestGoldenEquivalenceVariants(t *testing.T) {
	r := runner(t)
	capacity := capFor(t, 0.12)
	sizeLat := DefaultLatency()
	sizeLat.SSDTransferUsPerKB = 0.5
	sizeLat.HDDTransferUsPerKB = 2
	cfgs := []Config{
		{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 11, OnlineLearning: true},
		{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 11, DisableHistoryTable: true},
		{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 11, CostV: 1, ScoreThreshold: 0.7},
		{Policy: "fifo", CacheBytes: capacity, Mode: ModeOriginal, Latency: sizeLat},
		{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 11, RetrainHour: RetrainDisabled},
		{Policy: "lru", CacheBytes: capacity, Mode: ModeProposal, Seed: 11, RetrainHour: RetrainMidnight},
	}
	for _, cfg := range cfgs {
		want, err := seedRun(r, cfg)
		if err != nil {
			t.Fatalf("%+v: seed: %v", cfg, err)
		}
		got, err := r.Run(cfg)
		if err != nil {
			t.Fatalf("%+v: refactored: %v", cfg, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("config %+v: refactored Run diverges from seed", cfg)
		}
	}
}
