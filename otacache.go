// Package otacache is a from-scratch reproduction of "Efficient SSD
// Caching by Avoiding Unnecessary Writes using Machine Learning" (Wang,
// Yi, Huang, Cheng, Zhou — ICPP 2018).
//
// The paper's idea: in social-network photo caches, ~61.5% of objects
// are accessed exactly once, yet a traditional cache writes every miss
// to the SSD. A cost-sensitive decision tree predicts, at miss time and
// without per-object history, whether the missed photo is
// "one-time-access" under a reaccess-distance criteria M =
// C/(S·(1-h)·(1-p)); predicted one-time photos bypass the cache, and a
// small FIFO history table rectifies mispredictions on their second
// miss. This cuts SSD writes by 60–80% while *raising* the hit rate.
//
// This facade re-exports the pieces a downstream user needs:
//
//   - workload synthesis calibrated to the paper's trace statistics
//     (GenerateTrace, DefaultTraceConfig);
//   - six size-aware replacement policies (NewPolicy: lru, fifo, s3lru,
//     arc, lirs, belady);
//   - the one-time-access criteria solver (SolveCriteria) and the
//     classification system (NewHistoryTable, NewClassifierAdmission,
//     NewOracle, TrainTree);
//   - the simulation engine reproducing the paper's evaluation
//     (NewRunner, Config, Mode*).
//
// See examples/quickstart for a five-minute tour, DESIGN.md for the
// system inventory, and EXPERIMENTS.md for paper-vs-measured results.
package otacache

import (
	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/sim"
	"otacache/internal/trace"
)

// Trace synthesis.
type (
	// Trace is a synthetic QQPhoto-style workload.
	Trace = trace.Trace
	// TraceConfig parameterizes the generator.
	TraceConfig = trace.Config
	// TraceSummary aggregates the workload statistics of §2.2/Figure 3.
	TraceSummary = trace.Summary
)

// DefaultTraceConfig returns the calibrated generator configuration at
// a given object-population scale.
func DefaultTraceConfig(seed uint64, numPhotos int) TraceConfig {
	return trace.DefaultConfig(seed, numPhotos)
}

// GenerateTrace synthesizes a workload.
func GenerateTrace(cfg TraceConfig) (*Trace, error) { return trace.Generate(cfg) }

// SummarizeTrace computes workload statistics.
func SummarizeTrace(t *Trace) TraceSummary { return trace.Summarize(t) }

// BuildNextAccess builds the future-knowledge index used by Belady, the
// oracle filter, and labeling.
func BuildNextAccess(t *Trace) []int { return trace.BuildNextAccess(t) }

// Caching.
type (
	// Policy is a size-aware replacement policy.
	Policy = cache.Policy
)

// PolicyNames lists the available policies.
func PolicyNames() []string { return cache.Names() }

// NewPolicy constructs a policy by name ("belady" needs the next-access
// index; others accept nil).
func NewPolicy(name string, capacityBytes int64, next []int) (Policy, error) {
	return cache.New(name, capacityBytes, next)
}

// One-time-access criteria and admission.
type (
	// Criteria is the solved one-time-access criteria (M, h, p).
	Criteria = labeling.Criteria
	// Filter decides whether a missed object enters the cache.
	Filter = core.Filter
	// Decision is one admission verdict.
	Decision = core.Decision
	// HistoryTable is the FIFO rectification table of §4.4.2.
	HistoryTable = core.HistoryTable
	// ClassifierAdmission is the paper's classification system.
	ClassifierAdmission = core.ClassifierAdmission
	// Classifier is a trained binary classifier.
	Classifier = mlcore.Classifier
)

// SolveCriteria runs the §4.3 fixed-point iteration for a cache of
// cacheBytes at hit rate h (iters <= 0 means the paper's 3).
func SolveCriteria(t *Trace, next []int, cacheBytes int64, h float64, iters int) Criteria {
	return labeling.Solve(t, next, cacheBytes, h, iters)
}

// EstimateHitRate measures LRU hit rate for criteria solving, over the
// same leading requests the simulator and the daemon measure
// (labeling.HitRateSampleRequests).
func EstimateHitRate(t *Trace, cacheBytes int64) float64 {
	return labeling.EstimateHitRate(t, cacheBytes, labeling.HitRateSampleRequests)
}

// OneTimeLabels labels every request under the criteria.
func OneTimeLabels(next []int, c Criteria) []int { return labeling.Labels(next, c) }

// NewHistoryTable builds a rectification table; HistoryTableCapacity
// applies the paper's sizing rule M·(1-h)·p·0.05.
func NewHistoryTable(capacity int) *HistoryTable { return core.NewHistoryTable(capacity) }

// HistoryTableCapacity is the §4.4.2 sizing rule.
func HistoryTableCapacity(c Criteria) int { return core.TableCapacity(c) }

// NewClassifierAdmission assembles classifier + history table.
func NewClassifierAdmission(clf Classifier, table *HistoryTable, c Criteria) (*ClassifierAdmission, error) {
	return core.NewClassifierAdmission(clf, table, c)
}

// NewOracle builds the paper's "Ideal" 100%-accurate filter.
func NewOracle(next []int, c Criteria) Filter { return core.NewOracle(next, c) }

// CostV returns the Table 4 cost-matrix penalty for a cache size.
func CostV(cacheBytes int64) float64 { return core.CostV(cacheBytes) }

// Features and training.

// FeatureNames lists the nine §3.2.1 features in extractor order.
func FeatureNames() []string { return features.Names() }

// PaperFeatureColumns returns the five columns the paper's forward
// selection converges to (§3.2.2).
func PaperFeatureColumns() []int { return features.PaperSelected() }

// BuildDataset extracts features for the whole trace, pairing them with
// per-request labels (keep == nil keeps all requests).
func BuildDataset(t *Trace, labels []int, keep func(i int) bool) (*mlcore.Dataset, error) {
	return features.Dataset(t, labels, keep)
}

// TrainTree trains the paper's cost-sensitive CART classifier.
func TrainTree(d *mlcore.Dataset, v float64) (Classifier, error) {
	return core.TrainTree(d, v)
}

// Simulation.
type (
	// SimConfig is one simulation run's configuration.
	SimConfig = sim.Config
	// SimResult is one run's metrics.
	SimResult = sim.Result
	// Runner executes simulations over a trace.
	Runner = sim.Runner
	// Mode selects the admission behaviour.
	Mode = sim.Mode
	// LatencyModel is the Eq. 3-6 response-time model.
	LatencyModel = sim.LatencyModel
)

// Admission modes (the curve families of Figures 6-10, plus the
// frequency-baseline extension).
const (
	ModeOriginal   = sim.ModeOriginal
	ModeProposal   = sim.ModeProposal
	ModeIdeal      = sim.ModeIdeal
	ModeDoorkeeper = sim.ModeDoorkeeper
)

// SimConfig.RetrainHour sentinels: the zero value selects the paper's
// 05:00 schedule, RetrainMidnight requests a 00:00 retrain, and
// RetrainDisabled turns daily retraining off.
const (
	RetrainHourDefault = sim.RetrainHourDefault
	RetrainMidnight    = sim.RetrainMidnight
	RetrainDisabled    = sim.RetrainDisabled
)

// GB is a byte-size constant for capacities.
const GB = sim.GB

// NewRunner prepares a simulation runner for a trace.
func NewRunner(t *Trace) *Runner { return sim.NewRunner(t) }

// DefaultLatency returns the paper's latency constants.
func DefaultLatency() LatencyModel { return sim.DefaultLatency() }
