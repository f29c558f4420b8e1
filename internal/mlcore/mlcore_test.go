package mlcore

import (
	"math"
	"testing"
	"testing/quick"

	"otacache/internal/stats"
)

func sampleDataset() *Dataset {
	return &Dataset{
		X: [][]float64{
			{1, 10}, {1, 20}, {2, 10}, {2, 30},
			{3, 10}, {3, 20}, {4, 30}, {4, 10},
		},
		Y:     []int{0, 0, 0, 1, 1, 1, 1, 0},
		Names: []string{"a", "b"},
	}
}

func TestDatasetValidate(t *testing.T) {
	d := sampleDataset()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := &Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}
	if bad.Validate() == nil {
		t.Fatal("row/label mismatch must fail")
	}
	bad2 := &Dataset{X: [][]float64{{1}, {1, 2}}, Y: []int{0, 1}}
	if bad2.Validate() == nil {
		t.Fatal("ragged rows must fail")
	}
	bad3 := &Dataset{X: [][]float64{{1}}, Y: []int{7}}
	if bad3.Validate() == nil {
		t.Fatal("non-binary label must fail")
	}
	bad4 := &Dataset{X: [][]float64{{1}}, Y: []int{0}, W: []float64{1, 2}}
	if bad4.Validate() == nil {
		t.Fatal("weight length mismatch must fail")
	}
	bad5 := &Dataset{X: [][]float64{{1}}, Y: []int{0}, Names: []string{"a", "b"}}
	if bad5.Validate() == nil {
		t.Fatal("name count mismatch must fail")
	}
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		if (&Dataset{X: [][]float64{{1, v}}, Y: []int{0}}).Validate() == nil {
			t.Fatalf("feature %v must fail", v)
		}
	}
	for _, w := range []float64{-1, math.NaN(), math.Inf(1)} {
		if (&Dataset{X: [][]float64{{1}}, Y: []int{0}, W: []float64{w}}).Validate() == nil {
			t.Fatalf("weight %v must fail", w)
		}
	}
	if err := (&Dataset{X: [][]float64{{1}}, Y: []int{0}, W: []float64{0}}).Validate(); err != nil {
		t.Fatalf("zero weight: %v", err)
	}
}

func TestSubsetAndSelect(t *testing.T) {
	d := sampleDataset()
	s := d.Subset([]int{0, 3, 5})
	if s.Len() != 3 || s.Y[1] != 1 || s.X[2][1] != 20 {
		t.Fatalf("subset wrong: %+v", s)
	}
	f := d.SelectFeatures([]int{1})
	if f.NumFeatures() != 1 || f.X[3][0] != 30 || f.Names[0] != "b" {
		t.Fatalf("select wrong: %+v", f)
	}
	// Selecting must not alias original rows.
	f.X[0][0] = 999
	if d.X[0][1] == 999 {
		t.Fatal("SelectFeatures aliased source rows")
	}
}

func TestStratifiedSplitPreservesBalance(t *testing.T) {
	rng := stats.NewRNG(1)
	n := 1000
	d := &Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for i := 0; i < n; i++ {
		d.X[i] = []float64{float64(i)}
		if i%4 == 0 {
			d.Y[i] = 1
		}
	}
	train, test := d.StratifiedSplit(rng, 0.3)
	if train.Len()+test.Len() != n {
		t.Fatalf("split loses samples: %d + %d", train.Len(), test.Len())
	}
	_, posTrain := train.CountLabels()
	_, posTest := test.CountLabels()
	fTrain := float64(posTrain) / float64(train.Len())
	fTest := float64(posTest) / float64(test.Len())
	if math.Abs(fTrain-0.25) > 0.01 || math.Abs(fTest-0.25) > 0.01 {
		t.Fatalf("class balance not preserved: train %.3f test %.3f", fTrain, fTest)
	}
	// No overlap.
	seen := map[float64]bool{}
	for _, r := range train.X {
		seen[r[0]] = true
	}
	for _, r := range test.X {
		if seen[r[0]] {
			t.Fatal("train and test overlap")
		}
	}
}

func TestKFoldPartition(t *testing.T) {
	rng := stats.NewRNG(2)
	n := 103
	d := &Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for i := range d.X {
		d.X[i] = []float64{float64(i)}
		d.Y[i] = i % 2
	}
	folds := d.KFold(rng, 5)
	if len(folds) != 5 {
		t.Fatalf("%d folds", len(folds))
	}
	seen := map[float64]int{}
	for _, f := range folds {
		if f.Train.Len()+f.Test.Len() != n {
			t.Fatal("fold does not partition")
		}
		for _, r := range f.Test.X {
			seen[r[0]]++
		}
	}
	if len(seen) != n {
		t.Fatalf("test sets cover %d samples, want %d", len(seen), n)
	}
	for v, c := range seen {
		if c != 1 {
			t.Fatalf("sample %v in %d test sets", v, c)
		}
	}
	// k<2 clamps to 2.
	if len(d.KFold(rng, 1)) != 2 {
		t.Fatal("k<2 must clamp to 2")
	}
}

func TestConfusionMetrics(t *testing.T) {
	var c Confusion
	// 3 TP, 1 FP, 4 TN, 2 FN.
	for i := 0; i < 3; i++ {
		c.Add(Positive, Positive)
	}
	c.Add(Negative, Positive)
	for i := 0; i < 4; i++ {
		c.Add(Negative, Negative)
	}
	for i := 0; i < 2; i++ {
		c.Add(Positive, Negative)
	}
	if c.TP != 3 || c.FP != 1 || c.TN != 4 || c.FN != 2 {
		t.Fatalf("confusion: %+v", c)
	}
	if math.Abs(c.Precision()-0.75) > 1e-12 {
		t.Fatalf("precision %v", c.Precision())
	}
	if math.Abs(c.Recall()-0.6) > 1e-12 {
		t.Fatalf("recall %v", c.Recall())
	}
	if math.Abs(c.Accuracy()-0.7) > 1e-12 {
		t.Fatalf("accuracy %v", c.Accuracy())
	}
	if c.F1() <= 0 || c.F1() > 1 {
		t.Fatalf("f1 %v", c.F1())
	}
	var empty Confusion
	if empty.Precision() != 0 || empty.Recall() != 0 || empty.Accuracy() != 0 || empty.F1() != 0 {
		t.Fatal("empty confusion must report zeros")
	}
}

func TestAUCPerfectAndRandom(t *testing.T) {
	// Perfect separation.
	scores := []float64{0.1, 0.2, 0.8, 0.9}
	labels := []int{0, 0, 1, 1}
	if auc := AUC(scores, labels); math.Abs(auc-1) > 1e-12 {
		t.Fatalf("perfect AUC = %v", auc)
	}
	// Perfectly wrong.
	if auc := AUC(scores, []int{1, 1, 0, 0}); math.Abs(auc) > 1e-12 {
		t.Fatalf("inverted AUC = %v", auc)
	}
	// All ties: AUC = 0.5.
	if auc := AUC([]float64{5, 5, 5, 5}, labels); math.Abs(auc-0.5) > 1e-12 {
		t.Fatalf("tied AUC = %v", auc)
	}
	// Degenerate label sets.
	if AUC([]float64{1, 2}, []int{1, 1}) != 0 {
		t.Fatal("single-class AUC must be 0")
	}
	if AUC(nil, nil) != 0 {
		t.Fatal("empty AUC must be 0")
	}
}

func TestAUCKnownValue(t *testing.T) {
	// Hand-computed example: pos scores {0.9,0.4}, neg {0.5,0.3,0.1}.
	// Pairs where pos > neg: 0.9 beats all 3; 0.4 beats {0.3,0.1} = 2.
	// AUC = 5/6.
	scores := []float64{0.9, 0.4, 0.5, 0.3, 0.1}
	labels := []int{1, 1, 0, 0, 0}
	if auc := AUC(scores, labels); math.Abs(auc-5.0/6.0) > 1e-12 {
		t.Fatalf("AUC = %v, want 5/6", auc)
	}
}

// Property: AUC is invariant under strictly monotone score transforms
// and always within [0,1].
func TestAUCMonotoneInvariance(t *testing.T) {
	rng := stats.NewRNG(3)
	f := func(raw []uint8) bool {
		if len(raw) < 4 {
			return true
		}
		n := len(raw)
		scores := make([]float64, n)
		labels := make([]int, n)
		hasPos, hasNeg := false, false
		for i, b := range raw {
			scores[i] = float64(b%50) / 10
			if rng.Bernoulli(0.5) {
				labels[i] = 1
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			return true
		}
		a1 := AUC(scores, labels)
		if a1 < 0 || a1 > 1 {
			return false
		}
		warped := make([]float64, n)
		for i, s := range scores {
			warped[i] = math.Exp(2*s) + 7 // strictly monotone
		}
		a2 := AUC(warped, labels)
		return math.Abs(a1-a2) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropy(t *testing.T) {
	if h := Entropy([]float64{1, 1}); math.Abs(h-1) > 1e-12 {
		t.Fatalf("fair coin entropy = %v", h)
	}
	if h := Entropy([]float64{1, 0}); h != 0 {
		t.Fatalf("pure entropy = %v", h)
	}
	if h := Entropy(nil); h != 0 {
		t.Fatalf("empty entropy = %v", h)
	}
	if h := Entropy([]float64{1, 1, 1, 1}); math.Abs(h-2) > 1e-12 {
		t.Fatalf("4-way uniform entropy = %v", h)
	}
}

func TestInfoGain(t *testing.T) {
	// Feature 0 perfectly predicts the label; feature 1 is useless.
	d := &Dataset{
		X: [][]float64{{0, 5}, {0, 6}, {1, 5}, {1, 6}},
		Y: []int{0, 0, 1, 1},
	}
	if g := InfoGain(d, 0); math.Abs(g-1) > 1e-12 {
		t.Fatalf("perfect feature gain = %v, want 1", g)
	}
	if g := InfoGain(d, 1); math.Abs(g) > 1e-12 {
		t.Fatalf("useless feature gain = %v, want 0", g)
	}
	gains := InfoGainAll(d)
	if len(gains) != 2 || gains[0] < gains[1] {
		t.Fatalf("InfoGainAll = %v", gains)
	}
	if InfoGain(d, -1) != 0 || InfoGain(d, 5) != 0 {
		t.Fatal("out-of-range column must have zero gain")
	}
}

func TestInfoGainWeighted(t *testing.T) {
	// With weights zeroing out the contradicting samples, the feature
	// becomes perfectly informative.
	d := &Dataset{
		X: [][]float64{{0}, {0}, {1}, {1}},
		Y: []int{0, 1, 1, 1},
		W: []float64{1, 0, 1, 1},
	}
	if g := InfoGain(d, 0); math.Abs(g-Entropy([]float64{1, 2})) > 1e-12 {
		t.Fatalf("weighted gain = %v", g)
	}
}

func TestDiscretizerEqualWidth(t *testing.T) {
	z := NewEqualWidth(0, 100, 10)
	if z.Bins() != 10 {
		t.Fatalf("bins = %d", z.Bins())
	}
	cases := map[float64]int{0: 0, 5: 0, 10: 1, 95: 9, 100: 9, 150: 9, -5: 0}
	for v, want := range cases {
		if got := z.Bin(v); got != want {
			t.Fatalf("Bin(%v) = %d, want %d", v, got, want)
		}
	}
}

func TestDiscretizerQuantile(t *testing.T) {
	vals := make([]float64, 100)
	for i := range vals {
		vals[i] = float64(i * i) // skewed
	}
	z := NewQuantile(vals, 4)
	counts := make([]int, z.Bins())
	for _, v := range vals {
		counts[z.Bin(v)]++
	}
	for b, c := range counts {
		if c < 15 || c > 35 {
			t.Fatalf("quantile bin %d holds %d of 100", b, c)
		}
	}
	// Degenerate: constant values collapse to one bin.
	zc := NewQuantile([]float64{5, 5, 5, 5}, 4)
	if zc.Bins() != 1 {
		t.Fatalf("constant values produced %d bins", zc.Bins())
	}
}

func TestScaler(t *testing.T) {
	d := &Dataset{
		X: [][]float64{{1, 100}, {2, 200}, {3, 300}},
		Y: []int{0, 0, 1},
	}
	s := FitScaler(d)
	out := s.TransformDataset(d)
	for j := 0; j < 2; j++ {
		var mean, va float64
		for i := range out.X {
			mean += out.X[i][j]
		}
		mean /= 3
		for i := range out.X {
			va += (out.X[i][j] - mean) * (out.X[i][j] - mean)
		}
		if math.Abs(mean) > 1e-9 || math.Abs(va/3-1) > 1e-9 {
			t.Fatalf("column %d not standardized: mean=%v var=%v", j, mean, va/3)
		}
	}
	// In-place matches allocating version.
	x := []float64{2, 200}
	y := s.Transform(x)
	s.TransformInPlace(x)
	if x[0] != y[0] || x[1] != y[1] {
		t.Fatal("TransformInPlace disagrees with Transform")
	}
	// Constant column doesn't blow up.
	dc := &Dataset{X: [][]float64{{5}, {5}}, Y: []int{0, 1}}
	sc := FitScaler(dc)
	if v := sc.Transform([]float64{5})[0]; v != 0 {
		t.Fatalf("constant column transform = %v", v)
	}
	// Empty dataset scaler is identity-safe.
	se := FitScaler(&Dataset{})
	_ = se
}

func TestEvaluateWithStub(t *testing.T) {
	d := sampleDataset()
	stub := stubClassifier{threshold: 25}
	m := Evaluate(stub, d)
	if m.Confusion.Total() != d.Len() {
		t.Fatal("evaluate did not cover all samples")
	}
	if m.AUC < 0 || m.AUC > 1 {
		t.Fatalf("AUC out of range: %v", m.AUC)
	}
	if len(m.String()) == 0 {
		t.Fatal("empty metrics string")
	}
}

type stubClassifier struct{ threshold float64 }

func (s stubClassifier) Name() string { return "stub" }
func (s stubClassifier) Predict(x []float64) int {
	if x[1] >= s.threshold {
		return Positive
	}
	return Negative
}
func (s stubClassifier) Score(x []float64) float64 { return x[1] }

func TestCrossValidate(t *testing.T) {
	rng := stats.NewRNG(4)
	n := 200
	d := &Dataset{X: make([][]float64, n), Y: make([]int, n)}
	for i := range d.X {
		d.X[i] = []float64{0, float64(i)}
		if i >= 100 {
			d.Y[i] = 1
		}
	}
	folds := d.KFold(rng, 4)
	m, err := CrossValidate(func(train *Dataset) (Classifier, error) {
		return stubClassifier{threshold: 100}, nil
	}, folds)
	if err != nil {
		t.Fatal(err)
	}
	if m.Confusion.Total() != n {
		t.Fatalf("pooled confusion covers %d, want %d", m.Confusion.Total(), n)
	}
	if m.Confusion.Accuracy() < 0.99 {
		t.Fatalf("stub should be ~perfect here, accuracy=%v", m.Confusion.Accuracy())
	}
}

func TestROCEndpointsAndShape(t *testing.T) {
	scores := []float64{0.9, 0.4, 0.5, 0.3, 0.1}
	labels := []int{1, 1, 0, 0, 0}
	pts := ROC(scores, labels)
	if pts == nil {
		t.Fatal("nil ROC")
	}
	first, last := pts[0], pts[len(pts)-1]
	if first.FPR != 0 || first.TPR != 0 {
		t.Fatalf("curve must start at origin: %+v", first)
	}
	if last.FPR != 1 || last.TPR != 1 {
		t.Fatalf("curve must end at (1,1): %+v", last)
	}
	// Monotone non-decreasing in both axes.
	for i := 1; i < len(pts); i++ {
		if pts[i].FPR < pts[i-1].FPR || pts[i].TPR < pts[i-1].TPR {
			t.Fatalf("curve not monotone at %d", i)
		}
	}
}

func TestAUCFromROCMatchesRankAUC(t *testing.T) {
	rng := stats.NewRNG(10)
	for trial := 0; trial < 50; trial++ {
		n := 50 + rng.Intn(200)
		scores := make([]float64, n)
		labels := make([]int, n)
		hasPos, hasNeg := false, false
		for i := range scores {
			scores[i] = float64(rng.Intn(20)) / 10 // ties likely
			if rng.Bernoulli(0.4) {
				labels[i] = 1
				hasPos = true
			} else {
				hasNeg = true
			}
		}
		if !hasPos || !hasNeg {
			continue
		}
		a1 := AUC(scores, labels)
		a2 := AUCFromROC(ROC(scores, labels))
		if math.Abs(a1-a2) > 1e-9 {
			t.Fatalf("trial %d: rank AUC %v != trapezoid AUC %v", trial, a1, a2)
		}
	}
}

func TestROCDegenerate(t *testing.T) {
	if ROC(nil, nil) != nil {
		t.Fatal("empty must be nil")
	}
	if ROC([]float64{1, 2}, []int{1, 1}) != nil {
		t.Fatal("single-class must be nil")
	}
	if AUCFromROC(nil) != 0 {
		t.Fatal("empty curve area must be 0")
	}
}
