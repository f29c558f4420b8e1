// Package sim drives traces through (policy, admission mode, capacity)
// configurations and reports the metrics of the paper's evaluation
// (§5): file/byte hit rate, file/byte write rate, modelled response
// time, and the classification system's prediction quality.
package sim

import (
	"fmt"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/tier"
	"otacache/internal/trace"
)

// Mode selects the admission behaviour, matching the curve families in
// Figures 6–10. Each mode is the tier.FilterKind of the same number;
// Mode differs only in the paper's names.
type Mode int

// Admission modes.
const (
	// ModeOriginal admits every miss (the paper's "Original" curves;
	// with the belady policy it is also the "Belady" curve).
	ModeOriginal Mode = iota
	// ModeProposal uses the trained classifier + history table.
	ModeProposal
	// ModeIdeal uses the oracle classifier (100% accuracy).
	ModeIdeal
	// ModeDoorkeeper uses the non-ML frequency baseline (bloom
	// doorkeeper + decayed count-min sketch, "admit on re-access") —
	// not a paper mode, provided for baseline comparisons.
	ModeDoorkeeper
)

// String returns the paper's name for the mode.
func (m Mode) String() string {
	switch m {
	case ModeProposal:
		return "proposal"
	case ModeIdeal:
		return "ideal"
	case ModeDoorkeeper:
		return "doorkeeper"
	default:
		return "original"
	}
}

// Config is one simulation run.
type Config struct {
	// Policy is a cache.Names() entry.
	Policy string
	// CacheBytes is the SSD capacity.
	CacheBytes int64
	// Mode selects the admission behaviour.
	Mode Mode
	// Seed drives classifier training randomness.
	Seed uint64
	// Latency parameterizes the response-time model; zero fields take
	// the paper's defaults.
	Latency LatencyModel

	// HitRateEstimate is the h used to solve the one-time criteria; 0
	// means "measure with an LRU pass over the trace's first
	// labeling.HitRateSampleRequests requests" (the paper's approach,
	// and the same rule the serving layer applies).
	HitRateEstimate float64
	// MIterations is the criteria fixed-point iteration count (0 = 3).
	MIterations int

	// FeatureCols restricts the classifier to these feature columns;
	// nil means the paper's selected five (features.PaperSelected).
	FeatureCols []int
	// CostV overrides the cost matrix's v; 0 means the Table 4 rule.
	CostV float64
	// SamplesPerMinute is the training sampling rate (0 = the paper's
	// 100 records per minute).
	SamplesPerMinute int
	// RetrainHour is the daily retraining hour in [0, 23]. The zero
	// value selects RetrainHourDefault (05:00, per §4.4.3); a 00:00
	// retrain — which the zero value cannot express — is requested with
	// the RetrainMidnight sentinel; RetrainDisabled (-1) disables
	// retraining. Any other out-of-range value is an error.
	RetrainHour int
	// DisableHistoryTable runs the classifier without rectification
	// (ablation of §4.4.2).
	DisableHistoryTable bool
	// OnlineLearning replaces the daily-retrained tree with an
	// incrementally updated logistic model — the §4.4.3 alternative the
	// paper rejects; exposed for the ablation study. Only meaningful in
	// ModeProposal.
	OnlineLearning bool
	// ScoreThreshold, when > 0, predicts one-time only when the
	// classifier's score reaches it — a continuously tunable operating
	// point on the classifier's ROC curve (an alternative to the cost
	// matrix). Only meaningful in ModeProposal.
	ScoreThreshold float64
}

// Config.RetrainHour sentinels. An int field's zero value cannot
// distinguish "unset" from "hour 0", so the default is applied only to
// the zero value and midnight gets an explicit sentinel instead of
// being silently rewritten to the default.
const (
	// RetrainHourDefault is the paper's 05:00 schedule (§4.4.3),
	// applied when RetrainHour is left at its zero value.
	RetrainHourDefault = 5
	// RetrainMidnight requests a 00:00 daily retrain.
	RetrainMidnight = 24
	// RetrainDisabled turns daily retraining off.
	RetrainDisabled = -1
)

func (c *Config) normalize() error {
	if c.CacheBytes <= 0 {
		return fmt.Errorf("sim: CacheBytes must be positive, got %d", c.CacheBytes)
	}
	found := false
	for _, n := range cache.Names() {
		if n == c.Policy {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("sim: unknown policy %q", c.Policy)
	}
	c.Latency.normalize()
	s := c.spec().Normalized()
	c.MIterations, c.FeatureCols, c.CostV, c.SamplesPerMinute = s.MIterations, s.FeatureCols, s.CostV, s.SamplesPerMinute
	switch {
	case c.RetrainHour == 0:
		c.RetrainHour = RetrainHourDefault
	case c.RetrainHour == RetrainMidnight:
		c.RetrainHour = 0
	case c.RetrainHour < RetrainDisabled || c.RetrainHour > 23:
		return fmt.Errorf("sim: RetrainHour %d outside [0, 23] (RetrainMidnight for 00:00, RetrainDisabled to disable)", c.RetrainHour)
	}
	return nil
}

// spec is the configuration's admission, as tier.NewAdmission builds it.
func (c *Config) spec() tier.Spec {
	return tier.Spec{
		Kind:                tier.FilterKind(c.Mode),
		Policy:              c.Policy,
		CacheBytes:          c.CacheBytes,
		HitRate:             c.HitRateEstimate,
		MIterations:         c.MIterations,
		FeatureCols:         c.FeatureCols,
		CostV:               c.CostV,
		SamplesPerMinute:    c.SamplesPerMinute,
		DisableHistoryTable: c.DisableHistoryTable,
	}
}

// Quality scores the classification system against the one-time ground
// truth (Figure 5). Daily[i] covers trace day i.
type Quality struct {
	Overall mlcore.Confusion
	Daily   []mlcore.Confusion
}

// Result is one simulation's output.
type Result struct {
	Config   Config
	Requests int

	FileHits   int64
	ByteHits   int64
	FileWrites int64
	ByteWrites int64
	TotalBytes int64

	// Bypassed counts misses the admission filter rejected.
	Bypassed int64
	// Rectified counts history-table corrections.
	Rectified int64
	// Retrainings counts daily model refreshes performed.
	Retrainings int
	// WastedWrites counts SSD writes of objects that were truly
	// one-time under the criteria (classifier false negatives reaching
	// flash) — the paper's "invalid writes" that survive filtering.
	// Zero in ModeOriginal, which solves no criteria.
	WastedWrites int64

	// MeanLatencyUs is the Eq. 3 average access latency.
	MeanLatencyUs float64

	// Criteria is the solved one-time-access criteria for this run
	// (zero value in ModeOriginal).
	Criteria labeling.Criteria
	// Quality is the classification quality (Proposal/Ideal only).
	Quality Quality
}

// FileHitRate returns hits / requests.
func (r *Result) FileHitRate() float64 { return ratio(r.FileHits, int64(r.Requests)) }

// ByteHitRate returns hit bytes / requested bytes.
func (r *Result) ByteHitRate() float64 { return ratio(r.ByteHits, r.TotalBytes) }

// FileWriteRate returns SSD file writes / requests (§5.3.3).
func (r *Result) FileWriteRate() float64 { return ratio(r.FileWrites, int64(r.Requests)) }

// ByteWriteRate returns SSD bytes written / requested bytes (§5.3.4).
func (r *Result) ByteWriteRate() float64 { return ratio(r.ByteWrites, r.TotalBytes) }

func ratio(a, b int64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// Runner executes simulations over one trace, sharing the expensive
// next-access index between runs. It is safe for concurrent use.
type Runner struct {
	tr   *trace.Trace
	next []int
}

// NewRunner prepares a runner for the trace (building the next-access
// index once).
func NewRunner(tr *trace.Trace) *Runner {
	return &Runner{tr: tr, next: trace.BuildNextAccess(tr)}
}

// Trace returns the runner's trace.
func (r *Runner) Trace() *trace.Trace { return r.tr }

// NextAccess returns the shared next-access index.
func (r *Runner) NextAccess() []int { return r.next }

// Criteria solves the one-time-access criteria for a configuration,
// including the LIRS adjustment of §5.2 (tier.Solve).
func (r *Runner) Criteria(cfg Config) labeling.Criteria {
	return tier.Solve(r.tr, r.next, cfg.spec())
}

// Run executes one simulation as three composable stages: setup (mode
// preparation and Engine assembly), the per-request pipeline, and final
// metric assembly. The admission pipeline itself — policy lookup,
// filter decision, insertion, and the hit/write/bypass accounting —
// lives in engine.Engine and is shared with the tiered hierarchy and
// any concurrent server; the Runner contributes the trace-only stages
// around it: feature extraction, training-sample collection, the
// retraining scheduler, the latency model, and classification-quality
// scoring.
func (r *Runner) Run(cfg Config) (*Result, error) {
	st, err := r.setup(cfg)
	if err != nil {
		return nil, err
	}
	for i := range r.tr.Requests {
		r.step(st, i)
	}
	return r.finish(st), nil
}

// runState is one simulation's pipeline state, threaded through the
// stages of Run.
type runState struct {
	cfg Config
	res *Result
	eng *engine.Engine

	// Classified-mode state (nil/zero in ModeOriginal).
	labels    []int
	extractor *features.Extractor
	samples   *core.SampleBuffer
	admission *core.ClassifierAdmission
	onlineClf *core.OnlineLogit

	classified bool
	hitCost    float64
	missCost   float64
	sizeAware  bool

	nextRetrain int64
	latencySum  float64
	feat        [features.NumFeatures]float64
}

// setup normalizes the configuration, prepares the mode's filter and
// supporting state, and assembles the Engine the pipeline drives.
func (r *Runner) setup(cfg Config) (*runState, error) {
	if err := cfg.normalize(); err != nil {
		return nil, err
	}
	policy, err := cache.New(cfg.Policy, cfg.CacheBytes, r.next)
	if err != nil {
		return nil, err
	}

	st := &runState{cfg: cfg, res: &Result{Config: cfg, Requests: len(r.tr.Requests)}}
	days := int(r.tr.Horizon/86400) + 1
	st.res.Quality.Daily = make([]mlcore.Confusion, days)

	spec := cfg.spec()
	if cfg.Mode == ModeProposal && cfg.OnlineLearning {
		if st.onlineClf, err = core.NewOnlineLogit(len(cfg.FeatureCols), 0, -1); err != nil {
			return nil, err
		}
		spec.Classifier = st.onlineClf
	}
	adm, err := tier.NewAdmission(r.tr, r.next, spec)
	if err != nil {
		return nil, fmt.Errorf("sim: %w", err)
	}
	st.res.Criteria = adm.Criteria
	if cfg.Mode == ModeDoorkeeper {
		// Scored against, never filtered by: the doorkeeper solves none.
		st.res.Criteria = r.Criteria(cfg)
	}
	filter, err := adm.Filter(cfg.CacheBytes, core.TableCapacity(st.res.Criteria))
	if err != nil {
		return nil, err
	}
	if cfg.Mode != ModeOriginal {
		st.labels = labeling.Labels(r.next, st.res.Criteria)
	}
	if cfg.Mode == ModeProposal {
		st.admission = filter.(*core.ClassifierAdmission)
		if cfg.ScoreThreshold > 0 {
			st.admission.SetScoreThreshold(cfg.ScoreThreshold)
		}
		st.extractor = features.NewExtractor(r.tr)
		st.samples = core.NewSampleBuffer(cfg.SamplesPerMinute, 24*3600)
	}

	st.eng, err = engine.New(policy, filter)
	if err != nil {
		return nil, err
	}
	st.classified = cfg.Mode != ModeOriginal
	st.hitCost = cfg.Latency.HitCost()
	st.missCost = cfg.Latency.MissCost(st.classified)
	st.sizeAware = cfg.Latency.SizeAware()
	st.nextRetrain = int64(86400 + cfg.RetrainHour*3600) // first retrain after day 0
	if cfg.RetrainHour < 0 {
		st.nextRetrain = int64(1) << 62
	}
	return st, nil
}

// step runs request i through the pipeline: the training stage
// (features, sampling, the retraining scheduler), the Engine's
// admission pipeline, and the trace-side accounting (latency, quality,
// wasted writes) the Engine is agnostic of.
func (r *Runner) step(st *runState, i int) {
	req := &r.tr.Requests[i]
	size := r.tr.Photos[req.Photo].Size

	var proj []float64
	if st.extractor != nil {
		st.extractor.NextInto(i, st.feat[:])
		proj = tier.Project(st.feat[:], st.cfg.FeatureCols)
		if st.onlineClf == nil {
			st.samples.Offer(req.Time, proj, st.labels[i])
			if req.Time >= st.nextRetrain {
				r.retrain(st.cfg, st.admission, st.samples, req.Time, st.res)
				st.nextRetrain += 86400
			}
		}
	}

	out := st.eng.Lookup(uint64(req.Photo), size, i, proj)
	if st.onlineClf != nil {
		// Prequential update: the admission decision inside Lookup used
		// the pre-update model; learn from this access only afterwards.
		st.onlineClf.Update(proj, st.labels[i])
	}
	if out.Hit {
		if st.sizeAware {
			st.latencySum += st.cfg.Latency.HitCostFor(size)
		} else {
			st.latencySum += st.hitCost
		}
		return
	}
	if st.sizeAware {
		st.latencySum += st.cfg.Latency.MissCostFor(st.classified, size)
	} else {
		st.latencySum += st.missCost
	}
	if st.classified {
		day := int(req.Time / 86400)
		predicted := mlcore.Negative
		if out.Decision.PredictedOneTime {
			predicted = mlcore.Positive
		}
		st.res.Quality.Overall.Add(st.labels[i], predicted)
		if day >= 0 && day < len(st.res.Quality.Daily) {
			st.res.Quality.Daily[day].Add(st.labels[i], predicted)
		}
	}
	if out.Written && st.labels != nil && st.labels[i] == mlcore.Positive {
		st.res.WastedWrites++
	}
}

// finish folds the Engine's counters into the Result.
func (r *Runner) finish(st *runState) *Result {
	m := st.eng.Snapshot()
	res := st.res
	res.FileHits = m.Hits
	res.ByteHits = m.HitBytes
	res.FileWrites = m.Writes
	res.ByteWrites = m.WriteBytes
	res.TotalBytes = m.TotalBytes
	res.Bypassed = m.Bypassed
	res.Rectified = m.Rectified
	if res.Requests > 0 {
		res.MeanLatencyUs = st.latencySum / float64(res.Requests)
	}
	return res
}

// retrain refreshes the admission classifier from the sample buffer; a
// degenerate window (e.g. single-class) keeps the previous model.
func (r *Runner) retrain(cfg Config, admission *core.ClassifierAdmission, samples *core.SampleBuffer, now int64, res *Result) {
	d := samples.Dataset(now, nil)
	if d.Len() < 100 {
		return
	}
	clf, err := tier.Train(d, cfg.CostV)
	if err != nil {
		return
	}
	admission.SetClassifier(clf)
	res.Retrainings++
}
