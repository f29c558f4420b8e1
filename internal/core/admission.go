// Package core implements the paper's primary contribution: the
// "one-time-access-exclusion" classification system (Figure 4) that
// sits in front of the SSD cache and decides, at miss time, whether the
// missed photo should be admitted.
//
// The system has two components (§4.2):
//
//   - a classifier (a cost-sensitive CART decision tree, §3.1) that
//     predicts from social/photo/system features whether the access is
//     one-time under the criteria of §4.3;
//   - a history table (§4.4.2), a FIFO-evicted hash map remembering
//     recently bypassed photos: if a photo predicted one-time returns
//     within the reaccess-distance threshold M, the prediction was
//     wrong, and the photo is admitted on this second chance and
//     removed from the table.
//
// An oracle variant (OracleAdmission) implements the paper's "Ideal"
// curves: a classifier with perfect knowledge of the future.
package core

import (
	"fmt"
	"sync"
	"sync/atomic"

	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/slab"
	"otacache/internal/trace"
)

// Filter decides whether a missed object enters the cache. tick is the
// global request index; feat is the request's feature vector (may be
// nil for filters that do not use features).
type Filter interface {
	// Name returns the filter's short name.
	Name() string
	// Decide returns the admission decision for one miss.
	Decide(key uint64, tick int, feat []float64) Decision
}

// Decision describes one admission choice with enough detail to score
// the classification system (Figure 5).
type Decision struct {
	// Admit is the final verdict after rectification.
	Admit bool
	// PredictedOneTime is the classifier's raw prediction (before the
	// history table is consulted). For filters without a classifier it
	// mirrors !Admit.
	PredictedOneTime bool
	// Rectified reports that the history table overrode a one-time
	// prediction because the photo returned within distance M.
	Rectified bool
	// Degraded reports that the decision did not come from the primary
	// filter: a circuit breaker served it from the fallback because the
	// primary errored, panicked, overran its latency budget, or the
	// breaker was open. Degraded decisions are counted separately by the
	// engine so operators can see how much traffic ran unclassified.
	Degraded bool
}

// FallibleFilter is the optional error-reporting extension of Filter.
// The classification path can fail operationally (a model server
// timeout, a corrupt hot-swapped tree, an injected fault in tests);
// Decide has no error channel, so filters that can fail implement
// DecideErr and a circuit breaker consults it, treating a non-nil error
// as a failed decision. Decide on such filters should degrade to a
// safe default rather than panic.
type FallibleFilter interface {
	Filter
	// DecideErr returns the admission decision, or an error when the
	// filter could not decide. On error the Decision is ignored.
	DecideErr(key uint64, tick int, feat []float64) (Decision, error)
}

// AdmitAll is the traditional no-filter behaviour ("Original" curves).
// It is stateless and safe for concurrent use.
type AdmitAll struct{}

// Name implements Filter.
func (AdmitAll) Name() string { return "admit-all" }

// Decide implements Filter.
func (AdmitAll) Decide(uint64, int, []float64) Decision { return Decision{Admit: true} }

// OracleAdmission admits exactly the accesses that are not one-time
// under the criteria — the paper's "Ideal" classifier with 100%
// accuracy (§5.3). It only reads the immutable next-access index, so
// it is safe for concurrent use.
type OracleAdmission struct {
	next []int
	m    int
}

// NewOracle builds the ideal filter from the trace's next-access index
// and a solved criteria.
func NewOracle(next []int, crit labeling.Criteria) *OracleAdmission {
	return &OracleAdmission{next: next, m: crit.M}
}

// Name implements Filter.
func (o *OracleAdmission) Name() string { return "ideal" }

// Decide implements Filter.
func (o *OracleAdmission) Decide(_ uint64, tick int, _ []float64) Decision {
	oneTime := o.next[tick] == trace.NoNext || o.next[tick]-tick > o.m
	return Decision{Admit: !oneTime, PredictedOneTime: oneTime}
}

// HistoryTable is the FIFO-evicted hash map of recently bypassed photos
// (§4.4.2). Capacity is fixed at construction; inserting beyond it
// evicts the oldest entry.
//
// Its memory is fixed at construction too, and no operation allocates:
// the entries live in a slab.Arena made for capacity keys, on one FIFO
// list with the newest insertion at the front, so eviction takes the
// back.
//
// All methods are safe for concurrent use. The consult-and-update step
// of the admission workflow needs more than per-method atomicity, so
// filters must use Rectify rather than composing Lookup/Remove/Insert.
type HistoryTable struct {
	mu       sync.Mutex
	capacity int
	a        slab.Arena[bypass]
	fifo     slab.List
}

// bypass is a history-table entry's payload: the tick of the key's
// latest bypass.
type bypass struct{ tick int }

// NewHistoryTable returns an empty table. capacity is clamped to
// [1, 2^30].
func NewHistoryTable(capacity int) *HistoryTable {
	capacity = max(1, min(capacity, slab.MaxSlots))
	return &HistoryTable{capacity: capacity, a: slab.Make[bypass](capacity)}
}

// TableCapacity returns the paper's sizing rule M·(1-h)·p·0.05
// (§4.4.2), clamped to at least 16 entries.
func TableCapacity(crit labeling.Criteria) int {
	c := int(float64(crit.M) * (1 - crit.HitRate) * crit.OneTimeP * 0.05)
	if c < 16 {
		c = 16
	}
	return c
}

// Len returns the number of live entries.
func (t *HistoryTable) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.fifo.N
}

// Capacity returns the configured bound.
func (t *HistoryTable) Capacity() int { return t.capacity }

// Lookup returns the tick recorded for key, if present.
func (t *HistoryTable) Lookup(key uint64) (int, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.a.Lookup(key); s != slab.Nil {
		return t.a.Val(s).tick, true
	}
	return 0, false
}

// Insert records (or refreshes) key at the given tick, evicting the
// oldest entry if the table is full. A refreshed key keeps its FIFO
// position, so a frequently re-bypassed photo cannot monopolize the
// table.
func (t *HistoryTable) Insert(key uint64, tick int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.put(key, tick, t.a.Lookup(key))
}

// Remove deletes key if present.
func (t *HistoryTable) Remove(key uint64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if s := t.a.Lookup(key); s != slab.Nil {
		t.drop(s)
	}
}

// Rectify performs the §4.4.2 consult-and-update step as one critical
// section: if key was recorded within distance m of tick, the earlier
// bypass is rectified — the entry is removed and true is returned;
// otherwise the table records (or refreshes) key at tick and returns
// false. Concurrent Decide calls relying on "a rectified key is
// consumed exactly once" need this atomicity; composing Lookup, Remove
// and Insert would leave a window between the consult and the update.
func (t *HistoryTable) Rectify(key uint64, tick, m int) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := t.a.Lookup(key)
	if s != slab.Nil && tick-t.a.Val(s).tick < m {
		t.drop(s)
		return true
	}
	t.put(key, tick, s)
	return false
}

// TableEntry is one live history-table record, exported for snapshots.
type TableEntry struct {
	Key  uint64
	Tick int
}

// Entries returns the live records in FIFO order (oldest insertion
// first). Re-Inserting them in that order into an empty table of the
// same capacity reconstructs both the tick map and the eviction order,
// which is how a daemon's snapshot restore rebuilds rectification state.
func (t *HistoryTable) Entries() []TableEntry {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TableEntry, 0, t.fifo.N)
	for s := range t.fifo.Backward(t.a.Links()) {
		out = append(out, TableEntry{Key: t.a.Key(s), Tick: t.a.Val(s).tick})
	}
	return out
}

// put records key at tick given its slot s: a present key is refreshed
// in place; an absent one (s is slab.Nil) goes to the front, first
// evicting the back entry when the table is full.
func (t *HistoryTable) put(key uint64, tick int, s int32) {
	if s != slab.Nil {
		t.a.Val(s).tick = tick
		return
	}
	if t.fifo.N == t.capacity {
		t.a.EvictBack(&t.fifo, 0)
	}
	s = t.a.Add(key, bypass{tick}) // Add may lengthen Links, so it goes first
	t.fifo.PushFront(t.a.Links(), s, 0)
}

// drop removes slot s from the FIFO list and the arena.
func (t *HistoryTable) drop(s int32) {
	t.fifo.Unlink(t.a.Links(), s, 0)
	t.a.Del(s)
}

// ClassifierAdmission is the paper's classification system ("Proposal"
// curves): classifier + history table.
//
// Decide is safe to call concurrently with SetClassifier (the daily
// retraining path) and with other Decide calls, provided the installed
// classifier's Predict/Score are themselves safe for concurrent use.
// Every batch-trained model in this repo is immutable after training
// and qualifies; OnlineLogit mutates on Update and is restricted to
// single-goroutine callers.
type ClassifierAdmission struct {
	// model is swapped copy-on-write: Decide loads it once, so it sees a
	// classifier and threshold that were installed together, and never
	// takes a lock. mu only serializes the writers' read-modify-write.
	// The history table serializes itself.
	model atomic.Pointer[admissionModel]
	mu    sync.Mutex
	table *HistoryTable
	m     int
}

// admissionModel is one immutable {classifier, threshold} pair.
type admissionModel struct {
	clf mlcore.Classifier
	// threshold, when > 0, replaces the classifier's own decision rule:
	// predict one-time only when Score >= threshold. It selects an
	// operating point on the classifier's ROC curve, trading write
	// savings (recall) for hit-rate safety (precision) continuously
	// where the cost matrix does so at train time.
	threshold float64
}

// SetScoreThreshold enables threshold-based prediction (0 disables,
// restoring the classifier's own decision rule).
func (a *ClassifierAdmission) SetScoreThreshold(t float64) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.model.Store(&admissionModel{clf: a.model.Load().clf, threshold: t})
}

// NewClassifierAdmission assembles the system. table may be nil to run
// without rectification (the history-table ablation).
func NewClassifierAdmission(clf mlcore.Classifier, table *HistoryTable, crit labeling.Criteria) (*ClassifierAdmission, error) {
	if clf == nil {
		return nil, fmt.Errorf("core: nil classifier")
	}
	if crit.M < 1 {
		return nil, fmt.Errorf("core: criteria M must be >= 1, got %d", crit.M)
	}
	a := &ClassifierAdmission{table: table, m: crit.M}
	a.model.Store(&admissionModel{clf: clf})
	return a, nil
}

// Name implements Filter.
func (a *ClassifierAdmission) Name() string { return "classifier" }

// SetClassifier swaps in a newly trained model (daily retraining,
// §4.4.3). The history table and criteria are preserved. Safe to call
// while other goroutines are in Decide: in-flight decisions finish on
// the model they snapshotted, later ones see the new model.
func (a *ClassifierAdmission) SetClassifier(clf mlcore.Classifier) {
	if clf == nil {
		return
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.model.Store(&admissionModel{clf: clf, threshold: a.model.Load().threshold})
}

// Classifier returns the current model.
func (a *ClassifierAdmission) Classifier() mlcore.Classifier { return a.model.Load().clf }

// M returns the reaccess-distance threshold in force.
func (a *ClassifierAdmission) M() int { return a.m }

// Table returns the history table (nil when running the ablation),
// exposed so a daemon can snapshot and restore rectification state.
func (a *ClassifierAdmission) Table() *HistoryTable { return a.table }

// Decide implements Filter, following the workflow of §4.2 steps
// (4)–(6): classify; if predicted one-time, consult the history table
// and rectify when the photo returned within M.
func (a *ClassifierAdmission) Decide(key uint64, tick int, feat []float64) Decision {
	mdl := a.model.Load()
	var oneTime bool
	if mdl.threshold > 0 {
		oneTime = mdl.clf.Score(feat) >= mdl.threshold
	} else {
		oneTime = mdl.clf.Predict(feat) == mlcore.Positive
	}
	if !oneTime {
		if a.table != nil {
			a.table.Remove(key)
		}
		return Decision{Admit: true}
	}
	if a.table != nil {
		if a.table.Rectify(key, tick, a.m) {
			return Decision{Admit: true, PredictedOneTime: true, Rectified: true}
		}
	}
	return Decision{Admit: false, PredictedOneTime: true}
}

// CostV returns the cost-matrix penalty v for misclassifying a
// non-one-time photo as one-time, by cache size (Table 4, §4.4.1):
// v = 2 for caches up to 12 GB, v = 3 for 12–20 GB and beyond.
func CostV(cacheBytes int64) float64 {
	const gb = int64(1) << 30
	if cacheBytes < 12*gb {
		return 2
	}
	return 3
}
