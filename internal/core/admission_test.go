package core

import (
	"math/rand/v2"
	"slices"
	"testing"

	"otacache/internal/labeling"
	"otacache/internal/mlcore"
	"otacache/internal/trace"
)

func TestAdmitAll(t *testing.T) {
	var f AdmitAll
	d := f.Decide(1, 0, nil)
	if !d.Admit || d.PredictedOneTime || d.Rectified {
		t.Fatalf("AdmitAll decision: %+v", d)
	}
	if f.Name() != "admit-all" {
		t.Fatal("name")
	}
}

func TestOracleAdmission(t *testing.T) {
	next := []int{5, trace.NoNext, 3}
	o := NewOracle(next, labeling.Criteria{M: 3})
	// tick 0: distance 5 > 3 -> one-time -> bypass.
	if d := o.Decide(1, 0, nil); d.Admit || !d.PredictedOneTime {
		t.Fatalf("tick 0: %+v", d)
	}
	// tick 1: never again -> bypass.
	if d := o.Decide(2, 1, nil); d.Admit {
		t.Fatalf("tick 1: %+v", d)
	}
	// tick 2: distance 1 <= 3 -> admit.
	if d := o.Decide(3, 2, nil); !d.Admit || d.PredictedOneTime {
		t.Fatalf("tick 2: %+v", d)
	}
}

func TestHistoryTableFIFO(t *testing.T) {
	h := NewHistoryTable(3)
	h.Insert(1, 10)
	h.Insert(2, 20)
	h.Insert(3, 30)
	if h.Len() != 3 {
		t.Fatalf("len = %d", h.Len())
	}
	h.Insert(4, 40) // evicts 1 (oldest)
	if _, ok := h.Lookup(1); ok {
		t.Fatal("oldest entry not evicted")
	}
	for _, k := range []uint64{2, 3, 4} {
		if _, ok := h.Lookup(k); !ok {
			t.Fatalf("entry %d missing", k)
		}
	}
	if h.Len() != 3 || h.Capacity() != 3 {
		t.Fatalf("len=%d cap=%d", h.Len(), h.Capacity())
	}
}

func TestHistoryTableRefreshKeepsPosition(t *testing.T) {
	h := NewHistoryTable(2)
	h.Insert(1, 10)
	h.Insert(2, 20)
	h.Insert(1, 30) // refresh, not re-enqueue
	if tick, _ := h.Lookup(1); tick != 30 {
		t.Fatalf("refresh did not update tick: %d", tick)
	}
	h.Insert(3, 40) // must evict 1 (still oldest), not 2
	if _, ok := h.Lookup(1); ok {
		t.Fatal("refreshed key must keep its FIFO position")
	}
	if _, ok := h.Lookup(2); !ok {
		t.Fatal("2 wrongly evicted")
	}
}

func TestHistoryTableRemoveAndStaleSlots(t *testing.T) {
	h := NewHistoryTable(2)
	h.Insert(1, 10)
	h.Insert(2, 20)
	h.Remove(1)
	if h.Len() != 1 {
		t.Fatalf("len after remove = %d", h.Len())
	}
	h.Insert(3, 30) // fits without eviction
	h.Insert(4, 40) // must skip 1's stale slot and evict 2
	if _, ok := h.Lookup(2); ok {
		t.Fatal("2 should be evicted")
	}
	if _, ok := h.Lookup(3); !ok {
		t.Fatal("3 wrongly evicted through a stale slot")
	}
	// Removing a missing key is a no-op.
	h.Remove(999)
}

func TestHistoryTableCapacityClamp(t *testing.T) {
	h := NewHistoryTable(0)
	if h.Capacity() != 1 {
		t.Fatalf("capacity = %d, want 1", h.Capacity())
	}
	h.Insert(1, 1)
	h.Insert(2, 2)
	if h.Len() != 1 {
		t.Fatalf("len = %d, want 1", h.Len())
	}
}

// lazyTable is the history table as it was first written, kept as the
// differential reference: a map from key to (tick, insertion sequence)
// plus an append-only FIFO of (key, sequence) slots that Remove leaves
// behind and eviction skips when the sequence no longer matches.
type lazyTable struct {
	capacity int
	ticks    map[uint64]lazyEntry
	fifo     []lazySlot
	head     int
	seq      uint64
}

type lazyEntry struct {
	tick int
	seq  uint64
}

type lazySlot struct {
	key uint64
	seq uint64
}

func newLazyTable(capacity int) *lazyTable {
	return &lazyTable{capacity: capacity, ticks: map[uint64]lazyEntry{}}
}

func (r *lazyTable) lookup(key uint64) (int, bool) {
	e, ok := r.ticks[key]
	return e.tick, ok
}

func (r *lazyTable) insert(key uint64, tick int) {
	if e, ok := r.ticks[key]; ok {
		e.tick = tick
		r.ticks[key] = e
		return
	}
	for len(r.ticks) >= r.capacity {
		slot := r.fifo[r.head]
		r.head++
		if e, ok := r.ticks[slot.key]; ok && e.seq == slot.seq {
			delete(r.ticks, slot.key)
		}
	}
	r.seq++
	r.ticks[key] = lazyEntry{tick: tick, seq: r.seq}
	r.fifo = append(r.fifo, lazySlot{key: key, seq: r.seq})
}

func (r *lazyTable) remove(key uint64) { delete(r.ticks, key) }

func (r *lazyTable) rectify(key uint64, tick, m int) bool {
	if e, ok := r.ticks[key]; ok && tick-e.tick < m {
		delete(r.ticks, key)
		return true
	}
	r.insert(key, tick)
	return false
}

func (r *lazyTable) entries() []TableEntry {
	var out []TableEntry
	for _, slot := range r.fifo[r.head:] {
		if e, ok := r.ticks[slot.key]; ok && e.seq == slot.seq {
			out = append(out, TableEntry{Key: slot.key, Tick: e.tick})
		}
	}
	return out
}

// TestHistoryTableMatchesLazyReference drives the fixed-array table and
// the lazy-FIFO reference with the same seeded Insert/Remove/Rectify/
// Lookup stream. The key space is about twice the capacity, so
// refreshes, evictions, and removals followed by re-inserts all occur;
// after every op the results, Len and Entries (the FIFO order a
// snapshot writes) must agree.
func TestHistoryTableMatchesLazyReference(t *testing.T) {
	for _, capacity := range []int{1, 2, 7, 64} {
		h, ref := NewHistoryTable(capacity), newLazyTable(capacity)
		rng := rand.New(rand.NewPCG(uint64(capacity), 1))
		keys := uint64(2*capacity + 3)
		for tick := 0; tick < 20000; tick++ {
			key := rng.Uint64N(keys)
			var op string
			switch rng.IntN(4) {
			case 0:
				op = "insert"
				h.Insert(key, tick)
				ref.insert(key, tick)
			case 1:
				op = "remove"
				h.Remove(key)
				ref.remove(key)
			case 2:
				op = "rectify"
				m := 1 + rng.IntN(3*capacity+3)
				if got, want := h.Rectify(key, tick, m), ref.rectify(key, tick, m); got != want {
					t.Fatalf("cap %d tick %d: Rectify(%d, m=%d) = %v, reference %v", capacity, tick, key, m, got, want)
				}
			default:
				op = "lookup"
				gt, gok := h.Lookup(key)
				wt, wok := ref.lookup(key)
				if gok != wok || (gok && gt != wt) {
					t.Fatalf("cap %d tick %d: Lookup(%d) = %d,%v, reference %d,%v", capacity, tick, key, gt, gok, wt, wok)
				}
			}
			if h.Len() != len(ref.ticks) {
				t.Fatalf("cap %d tick %d after %s(%d): Len = %d, reference %d", capacity, tick, op, key, h.Len(), len(ref.ticks))
			}
			if got, want := h.Entries(), ref.entries(); !slices.Equal(got, want) {
				t.Fatalf("cap %d tick %d after %s(%d): Entries = %v, reference %v", capacity, tick, op, key, got, want)
			}
		}
	}
}

func TestTableCapacityRule(t *testing.T) {
	c := TableCapacity(labeling.Criteria{M: 100000, HitRate: 0.6, OneTimeP: 0.4})
	// 100000 * 0.4 * 0.4 * 0.05 = 800.
	if c != 800 {
		t.Fatalf("capacity = %d, want 800", c)
	}
	if TableCapacity(labeling.Criteria{M: 1}) != 16 {
		t.Fatal("tiny capacities must clamp to 16")
	}
}

// fixedClassifier predicts by the first feature: >= 0.5 means one-time.
type fixedClassifier struct{}

func (fixedClassifier) Name() string { return "fixed" }
func (fixedClassifier) Predict(x []float64) int {
	if x[0] >= 0.5 {
		return mlcore.Positive
	}
	return mlcore.Negative
}
func (fixedClassifier) Score(x []float64) float64 { return x[0] }

func TestClassifierAdmissionFlow(t *testing.T) {
	table := NewHistoryTable(100)
	a, err := NewClassifierAdmission(fixedClassifier{}, table, labeling.Criteria{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	if a.Name() != "classifier" || a.M() != 10 {
		t.Fatal("accessors")
	}
	// Predicted non-one-time: admitted, no table entry.
	d := a.Decide(1, 0, []float64{0})
	if !d.Admit || d.PredictedOneTime {
		t.Fatalf("non-one-time: %+v", d)
	}
	if table.Len() != 0 {
		t.Fatal("admit must not populate the table")
	}
	// Predicted one-time: bypassed and remembered.
	d = a.Decide(2, 5, []float64{1})
	if d.Admit || !d.PredictedOneTime || d.Rectified {
		t.Fatalf("one-time: %+v", d)
	}
	if _, ok := table.Lookup(2); !ok {
		t.Fatal("bypassed photo not recorded")
	}
	// Same photo back within M: rectified, admitted, removed.
	d = a.Decide(2, 12, []float64{1})
	if !d.Admit || !d.Rectified {
		t.Fatalf("rectification: %+v", d)
	}
	if _, ok := table.Lookup(2); ok {
		t.Fatal("rectified photo must leave the table")
	}
	// Back after more than M: still bypassed (prediction was fine).
	a.Decide(3, 0, []float64{1})
	d = a.Decide(3, 100, []float64{1})
	if d.Admit || d.Rectified {
		t.Fatalf("slow return: %+v", d)
	}
	// A later non-one-time prediction clears any table entry.
	a.Decide(4, 100, []float64{1})
	d = a.Decide(4, 101, []float64{0})
	if !d.Admit {
		t.Fatal("non-one-time must admit")
	}
	if _, ok := table.Lookup(4); ok {
		t.Fatal("admit must clear the table entry")
	}
}

func TestClassifierAdmissionWithoutTable(t *testing.T) {
	a, err := NewClassifierAdmission(fixedClassifier{}, nil, labeling.Criteria{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	a.Decide(1, 0, []float64{1})
	// Without a table, a fast return is NOT rectified.
	d := a.Decide(1, 2, []float64{1})
	if d.Admit || d.Rectified {
		t.Fatalf("no-table flow: %+v", d)
	}
}

func TestClassifierAdmissionErrors(t *testing.T) {
	if _, err := NewClassifierAdmission(nil, nil, labeling.Criteria{M: 5}); err == nil {
		t.Fatal("nil classifier must error")
	}
	if _, err := NewClassifierAdmission(fixedClassifier{}, nil, labeling.Criteria{M: 0}); err == nil {
		t.Fatal("M=0 must error")
	}
}

func TestSetClassifier(t *testing.T) {
	a, _ := NewClassifierAdmission(fixedClassifier{}, nil, labeling.Criteria{M: 5})
	a.SetClassifier(nil) // ignored
	if a.Classifier() == nil {
		t.Fatal("nil swap must be ignored")
	}
}

func TestCostV(t *testing.T) {
	const gb = int64(1) << 30
	if CostV(2*gb) != 2 || CostV(11*gb) != 2 {
		t.Fatal("v must be 2 below 12GB")
	}
	if CostV(12*gb) != 3 || CostV(20*gb) != 3 {
		t.Fatal("v must be 3 from 12GB")
	}
}

func TestScoreThresholdOverridesPredict(t *testing.T) {
	// fixedClassifier scores by x[0]; Predict cuts at 0.5.
	a, err := NewClassifierAdmission(fixedClassifier{}, nil, labeling.Criteria{M: 10})
	if err != nil {
		t.Fatal(err)
	}
	// Default rule: 0.6 -> one-time (bypass).
	if d := a.Decide(1, 0, []float64{0.6}); d.Admit {
		t.Fatal("default rule should bypass at 0.6")
	}
	// With threshold 0.9, score 0.6 no longer counts as one-time.
	a.SetScoreThreshold(0.9)
	if d := a.Decide(2, 0, []float64{0.6}); !d.Admit {
		t.Fatal("threshold 0.9 should admit at score 0.6")
	}
	if d := a.Decide(3, 0, []float64{0.95}); d.Admit {
		t.Fatal("threshold 0.9 should bypass at score 0.95")
	}
	// Disabling restores the classifier's rule.
	a.SetScoreThreshold(0)
	if d := a.Decide(4, 0, []float64{0.6}); d.Admit {
		t.Fatal("disabled threshold should restore Predict")
	}
}

func TestFrequencyAdmission(t *testing.T) {
	f, err := NewFrequencyAdmission(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if f.Name() != "doorkeeper" {
		t.Fatal("name")
	}
	// First appearance: bypass.
	if d := f.Decide(7, 0, nil); d.Admit || !d.PredictedOneTime {
		t.Fatalf("first appearance: %+v", d)
	}
	// Second appearance: admit.
	if d := f.Decide(7, 1, nil); !d.Admit || d.PredictedOneTime {
		t.Fatalf("second appearance: %+v", d)
	}
	// A different key still bounces.
	if d := f.Decide(8, 2, nil); d.Admit {
		t.Fatalf("fresh key admitted: %+v", d)
	}
}

func TestFrequencyAdmissionMinFreq(t *testing.T) {
	f, err := NewFrequencyAdmission(1024, 3)
	if err != nil {
		t.Fatal(err)
	}
	admittedAt := -1
	for i := 0; i < 6; i++ {
		if f.Decide(9, i, nil).Admit {
			admittedAt = i
			break
		}
	}
	// Appearance 0 marks the doorkeeper; appearances 1.. count in the
	// sketch; estimate reaches 3 on the 4th appearance.
	if admittedAt != 3 {
		t.Fatalf("admitted at appearance %d, want 3", admittedAt)
	}
	if _, err := NewFrequencyAdmission(0, 1); err == nil {
		t.Fatal("zero width must error")
	}
	// minFreq <= 0 defaults to 1.
	f2, _ := NewFrequencyAdmission(1024, 0)
	f2.Decide(1, 0, nil)
	if d := f2.Decide(1, 1, nil); !d.Admit {
		t.Fatal("default minFreq must admit on second appearance")
	}
}
