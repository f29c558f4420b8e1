package tier

import (
	"fmt"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/trace"
)

// Spec is one admission filter, described independently of who drives
// it: the simulator (internal/sim) and a serving layer (BuildLayer)
// both build their filters from a Spec through NewAdmission, so a
// figure and the daemon agree on M, the bootstrap tree and the filter.
type Spec struct {
	// Kind is the admission behaviour.
	Kind FilterKind
	// Policy is the replacement policy the criteria are adapted to
	// (§5.2: LIRS scales M by its LIR share).
	Policy string
	// CacheBytes is the capacity the criteria are solved for.
	CacheBytes int64
	// HitRate is the h of the criteria solve; 0 measures it with an LRU
	// pass over the first labeling.HitRateSampleRequests requests.
	HitRate float64
	// MIterations is the criteria fixed-point iteration count (0 = 3).
	MIterations int
	// FeatureCols are the classifier's feature columns (nil = the
	// paper's selected five, features.PaperSelected).
	FeatureCols []int
	// CostV is the cost-matrix penalty (0 = the Table 4 rule on
	// CacheBytes).
	CostV float64
	// SamplesPerMinute is the bootstrap sampling rate (0 = the paper's
	// 100 records per minute, §3.1.1).
	SamplesPerMinute int
	// DisableHistoryTable builds classifier filters without
	// rectification (the §4.4.2 ablation).
	DisableHistoryTable bool
	// Classifier, when set, replaces a Classifier spec's bootstrap tree
	// (the simulator's online model, which learns from scratch).
	Classifier mlcore.Classifier
}

// Normalized returns the spec with every zero-valued default resolved.
func (s Spec) Normalized() Spec {
	if s.MIterations <= 0 {
		s.MIterations = 3
	}
	if s.FeatureCols == nil {
		s.FeatureCols = features.PaperSelected()
	}
	if s.CostV <= 0 {
		s.CostV = core.CostV(s.CacheBytes)
	}
	if s.SamplesPerMinute <= 0 {
		s.SamplesPerMinute = 100
	}
	return s
}

// Admission is a solved Spec: the criteria and bootstrap tree, computed
// once, from which Filter builds any number of per-shard filters.
type Admission struct {
	// Criteria is the solved one-time-access criteria (zero value for
	// admit-all and doorkeeper specs, which solve none).
	Criteria labeling.Criteria

	spec Spec // normalized
	tr   *trace.Trace
	next []int
	clf  mlcore.Classifier
}

// NewAdmission solves spec over the trace and its next-access index.
// Oracle and classifier specs solve the criteria; a classifier spec
// also trains its bootstrap tree unless spec.Classifier supplies one.
func NewAdmission(tr *trace.Trace, next []int, spec Spec) (*Admission, error) {
	a := &Admission{spec: spec.Normalized(), tr: tr, next: next}
	switch spec.Kind {
	case AdmitAll, Doorkeeper:
		// nothing to solve
	case Oracle, Classifier:
		a.Criteria = Solve(tr, next, a.spec)
		a.clf = spec.Classifier
		if spec.Kind == Classifier && a.clf == nil {
			var err error
			if a.clf, err = Bootstrap(tr, labeling.Labels(next, a.Criteria), a.spec); err != nil {
				return nil, err
			}
		}
	default:
		return nil, fmt.Errorf("tier: unknown filter kind %d", spec.Kind)
	}
	return a, nil
}

// Solve returns spec's one-time-access criteria: M solved from the
// capacity and h (measured when spec.HitRate is 0), adapted to the
// spec's policy.
func Solve(tr *trace.Trace, next []int, spec Spec) labeling.Criteria {
	h := spec.HitRate
	if h <= 0 {
		h = labeling.EstimateHitRate(tr, spec.CacheBytes, labeling.HitRateSampleRequests)
	}
	crit := labeling.Solve(tr, next, spec.CacheBytes, h, spec.MIterations)
	return crit.ForPolicy(spec.Policy, cache.DefaultLIRRatio)
}

// Filter builds one shard's admission filter at the shard's capacity
// and history-table budget. Per-shard state (history table, frequency
// sketch) is fresh on every call; criteria and tree are shared.
func (a *Admission) Filter(capacity int64, tableCap int) (core.Filter, error) {
	switch a.spec.Kind {
	case Doorkeeper:
		return a.doorkeeper(capacity)
	case Oracle:
		return core.NewOracle(a.next, a.Criteria), nil
	case Classifier:
		var table *core.HistoryTable
		if !a.spec.DisableHistoryTable {
			table = core.NewHistoryTable(tableCap)
		}
		return core.NewClassifierAdmission(a.clf, table, a.Criteria)
	}
	return core.AdmitAll{}, nil
}

// doorkeeper builds the frequency baseline sized to a capacity: one
// counter per photo the capacity holds on average, at least 1024.
func (a *Admission) doorkeeper(capacity int64) (core.Filter, error) {
	return core.NewFrequencyAdmission(max(int(capacity/a.tr.MeanPhotoSize()), 1024), 1)
}

// Bootstrap trains the initial tree on the first day's sampled records,
// the paper's offline bootstrap (§4.4.3 trains on the previous 24
// hours; day 0 warm-starts on its own sample, DESIGN.md). It refuses a
// first day of fewer than 10 samples.
func Bootstrap(tr *trace.Trace, labels []int, spec Spec) (mlcore.Classifier, error) {
	spec = spec.Normalized()
	buf := core.NewSampleBuffer(spec.SamplesPerMinute, 24*3600)
	ex := features.NewExtractor(tr)
	var feat [features.NumFeatures]float64
	limit := min(int64(86400), tr.Horizon)
	for i := range tr.Requests {
		if tr.Requests[i].Time >= limit {
			break
		}
		ex.NextInto(i, feat[:])
		buf.Offer(tr.Requests[i].Time, Project(feat[:], spec.FeatureCols), labels[i])
	}
	d := buf.Dataset(limit, nil)
	if d.Len() < 10 {
		return nil, fmt.Errorf("tier: only %d bootstrap samples in the first day", d.Len())
	}
	return Train(d, spec.CostV)
}

// Train fits the cost-sensitive tree with penalty v, refusing a
// single-class set, from which no tree can learn the boundary.
func Train(d *mlcore.Dataset, v float64) (mlcore.Classifier, error) {
	neg, pos := d.CountLabels()
	if neg == 0 || pos == 0 {
		return nil, fmt.Errorf("tier: degenerate training set (%d neg / %d pos)", neg, pos)
	}
	return core.TrainTree(d, v)
}

// Project selects the classifier's feature columns from a full vector.
func Project(full []float64, cols []int) []float64 {
	out := make([]float64, len(cols))
	for j, c := range cols {
		out[j] = full[c]
	}
	return out
}
