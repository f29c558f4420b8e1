package cart

import (
	"math"
	"testing"
	"testing/quick"

	"otacache/internal/mlcore"
	"otacache/internal/stats"
)

// xorDataset is learnable only with at least 3 splits.
func xorDataset(n int, rng *stats.RNG) *mlcore.Dataset {
	d := &mlcore.Dataset{}
	for i := 0; i < n; i++ {
		a := rng.Float64()
		b := rng.Float64()
		y := mlcore.Negative
		if (a > 0.5) != (b > 0.5) {
			y = mlcore.Positive
		}
		d.X = append(d.X, []float64{a, b})
		d.Y = append(d.Y, y)
	}
	return d
}

func TestTrainSimpleThreshold(t *testing.T) {
	d := &mlcore.Dataset{
		X: [][]float64{{1}, {2}, {3}, {10}, {11}, {12}},
		Y: []int{0, 0, 0, 1, 1, 1},
	}
	tree, err := Train(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumSplits() != 1 {
		t.Fatalf("splits = %d, want 1", tree.NumSplits())
	}
	if tree.Predict([]float64{2.5}) != mlcore.Negative {
		t.Fatal("2.5 should be negative")
	}
	if tree.Predict([]float64{10.5}) != mlcore.Positive {
		t.Fatal("10.5 should be positive")
	}
	// Score must order a clear negative below a clear positive.
	if tree.Score([]float64{1}) >= tree.Score([]float64{11}) {
		t.Fatal("scores not ordered")
	}
}

func TestTrainXOR(t *testing.T) {
	rng := stats.NewRNG(1)
	d := xorDataset(2000, rng)
	tree, err := Train(d, Config{MaxSplits: 10, MaxDepth: 6, MinLeafWeight: 5})
	if err != nil {
		t.Fatal(err)
	}
	m := mlcore.Evaluate(tree, d)
	if m.Confusion.Accuracy() < 0.95 {
		t.Fatalf("XOR accuracy = %v, want >= 0.95", m.Confusion.Accuracy())
	}
	if tree.NumSplits() < 3 {
		t.Fatalf("XOR needs >= 3 splits, used %d", tree.NumSplits())
	}
}

func TestMaxSplitsBudget(t *testing.T) {
	rng := stats.NewRNG(2)
	d := xorDataset(3000, rng)
	// Add noise features so the tree is tempted to over-split.
	for i := range d.X {
		d.X[i] = append(d.X[i], rng.Float64(), rng.Float64())
	}
	for _, budget := range []int{1, 5, 30} {
		tree, err := Train(d, Config{MaxSplits: budget, MaxDepth: 25})
		if err != nil {
			t.Fatal(err)
		}
		if tree.NumSplits() > budget {
			t.Fatalf("budget %d exceeded: %d splits", budget, tree.NumSplits())
		}
	}
}

func TestMaxDepthBound(t *testing.T) {
	rng := stats.NewRNG(3)
	d := xorDataset(3000, rng)
	tree, err := Train(d, Config{MaxSplits: 1000, MaxDepth: 4})
	if err != nil {
		t.Fatal(err)
	}
	if h := tree.Height(); h > 4 {
		t.Fatalf("height %d exceeds MaxDepth 4", h)
	}
	// Property (paper §3.1.2): prediction path length <= depth cap.
	for i := 0; i < 200; i++ {
		x := []float64{rng.Float64(), rng.Float64()}
		if l := tree.PathLen(x); l > 4 {
			t.Fatalf("path length %d > 4", l)
		}
	}
}

func TestPureNodeNotSplit(t *testing.T) {
	d := &mlcore.Dataset{
		X: [][]float64{{1}, {2}, {3}},
		Y: []int{1, 1, 1},
	}
	tree, err := Train(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.NumSplits() != 0 {
		t.Fatal("pure dataset must yield a single leaf")
	}
	if tree.Predict([]float64{99}) != mlcore.Positive {
		t.Fatal("pure-positive leaf must predict positive")
	}
	if tree.Height() != 1 {
		t.Fatalf("single-leaf height = %d", tree.Height())
	}
}

func TestCostSensitiveShiftsDecision(t *testing.T) {
	// A mixed region with 60% positives: cost-insensitive predicts
	// positive; with v=2 the expected cost flips the decision.
	d := &mlcore.Dataset{}
	for i := 0; i < 100; i++ {
		d.X = append(d.X, []float64{1})
		if i < 60 {
			d.Y = append(d.Y, mlcore.Positive)
		} else {
			d.Y = append(d.Y, mlcore.Negative)
		}
	}
	plain, err := Train(d, Config{NegCost: 1})
	if err != nil {
		t.Fatal(err)
	}
	if plain.Predict([]float64{1}) != mlcore.Positive {
		t.Fatal("cost-insensitive should predict the 60% majority")
	}
	costly, err := Train(d, Config{NegCost: 2})
	if err != nil {
		t.Fatal(err)
	}
	if costly.Predict([]float64{1}) != mlcore.Negative {
		t.Fatal("v=2 should flip the decision (60 < 2*40)")
	}
}

func TestInstanceWeightsRespected(t *testing.T) {
	// Two contradictory points at the same x; weights decide the label.
	d := &mlcore.Dataset{
		X: [][]float64{{1}, {1}},
		Y: []int{0, 1},
		W: []float64{10, 1},
	}
	tree, err := Train(d, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Predict([]float64{1}) != mlcore.Negative {
		t.Fatal("heavier negative must win")
	}
	d.W = []float64{1, 10}
	tree2, _ := Train(d, Config{})
	if tree2.Predict([]float64{1}) != mlcore.Positive {
		t.Fatal("heavier positive must win")
	}
}

func TestMTryRequiresRand(t *testing.T) {
	d := &mlcore.Dataset{X: [][]float64{{1}, {2}}, Y: []int{0, 1}}
	if _, err := Train(d, Config{MTry: 1}); err == nil {
		t.Fatal("MTry without Rand must error")
	}
	if _, err := Train(d, Config{MTry: 1, Rand: stats.NewRNG(1)}); err != nil {
		t.Fatal(err)
	}
}

func TestTrainErrors(t *testing.T) {
	if _, err := Train(&mlcore.Dataset{}, Config{}); err == nil {
		t.Fatal("empty dataset must error")
	}
	bad := &mlcore.Dataset{X: [][]float64{{1}}, Y: []int{0, 1}}
	if _, err := Train(bad, Config{}); err == nil {
		t.Fatal("invalid dataset must error")
	}
}

// TestTrainRejectsNonFinite: NaN compares false both ways, so a column
// holding NaN has no sort order. Let through, this one-feature dataset
// with every tenth value NaN trains a 24-split tree of height 25, where
// the same data with 0.25 in place of NaN trains one split.
func TestTrainRejectsNonFinite(t *testing.T) {
	d := &mlcore.Dataset{}
	for i := 0; i < 2000; i++ {
		v := float64(i%100) / 100
		if i%10 == 0 {
			v = math.NaN()
		}
		y := mlcore.Negative
		if v > 0.5 {
			y = mlcore.Positive
		}
		d.X = append(d.X, []float64{v})
		d.Y = append(d.Y, y)
	}
	if _, err := Train(d, Default(2)); err == nil {
		t.Fatal("Train accepted NaN features")
	}
	for i := range d.X {
		if math.IsNaN(d.X[i][0]) {
			d.X[i][0] = math.Inf(1)
		}
	}
	if _, err := Train(d, Default(2)); err == nil {
		t.Fatal("Train accepted infinite features")
	}
}

func TestDeterministicTraining(t *testing.T) {
	rng := stats.NewRNG(7)
	d := xorDataset(500, rng)
	a, _ := Train(d, Default(2))
	b, _ := Train(d, Default(2))
	for i := 0; i < 100; i++ {
		x := []float64{float64(i) / 100, float64((i*37)%100) / 100}
		if a.Predict(x) != b.Predict(x) || a.Score(x) != b.Score(x) {
			t.Fatal("training is not deterministic")
		}
	}
}

func TestDefaultConfigMatchesPaper(t *testing.T) {
	cfg := Default(2)
	if cfg.MaxSplits != 30 {
		t.Fatalf("paper's split cap is 30, got %d", cfg.MaxSplits)
	}
	if cfg.NegCost != 2 {
		t.Fatal("NegCost not threaded")
	}
}

func TestScoreMonotoneWithPurity(t *testing.T) {
	// Leaves with higher positive fraction must score higher.
	d := &mlcore.Dataset{}
	for i := 0; i < 300; i++ {
		x := float64(i)
		y := mlcore.Negative
		// region A (x<100): 10% pos; region B (100..200): 50%; C: 90%.
		switch {
		case x < 100:
			if i%10 == 0 {
				y = mlcore.Positive
			}
		case x < 200:
			if i%2 == 0 {
				y = mlcore.Positive
			}
		default:
			if i%10 != 0 {
				y = mlcore.Positive
			}
		}
		d.X = append(d.X, []float64{x})
		d.Y = append(d.Y, y)
	}
	tree, err := Train(d, Config{MaxSplits: 10, MinLeafWeight: 20})
	if err != nil {
		t.Fatal(err)
	}
	sA := tree.Score([]float64{50})
	sB := tree.Score([]float64{150})
	sC := tree.Score([]float64{250})
	if !(sA < sB && sB < sC) {
		t.Fatalf("scores not monotone with purity: %v %v %v", sA, sB, sC)
	}
}

func TestBestFirstUsesBudgetOnBestSplits(t *testing.T) {
	// Feature 0 separates perfectly at one cut; feature 1 is noise.
	// With a budget of 1 the tree must pick feature 0.
	rng := stats.NewRNG(9)
	d := &mlcore.Dataset{}
	for i := 0; i < 400; i++ {
		x0 := rng.Float64()
		y := mlcore.Negative
		if x0 > 0.5 {
			y = mlcore.Positive
		}
		d.X = append(d.X, []float64{x0, rng.Float64()})
		d.Y = append(d.Y, y)
	}
	tree, err := Train(d, Config{MaxSplits: 1})
	if err != nil {
		t.Fatal(err)
	}
	if tree.root.feature != 0 {
		t.Fatalf("root split on feature %d, want 0", tree.root.feature)
	}
	if math.Abs(tree.root.threshold-0.5) > 0.05 {
		t.Fatalf("root threshold %v, want ~0.5", tree.root.threshold)
	}
}

// Property: on arbitrary random datasets, training never fails and the
// model's outputs stay in their contracts (labels binary, scores in
// [0,1], path length within the depth cap).
func TestTrainRobustnessProperty(t *testing.T) {
	rng := stats.NewRNG(21)
	f := func(raw []uint8) bool {
		if len(raw) < 8 {
			return true
		}
		d := &mlcore.Dataset{}
		for i := 0; i+1 < len(raw); i += 2 {
			d.X = append(d.X, []float64{float64(raw[i] % 16), float64(raw[i+1] % 4)})
			d.Y = append(d.Y, int(raw[i]^raw[i+1])&1)
		}
		tree, err := Train(d, Config{MaxSplits: 8, MaxDepth: 5, MinLeafWeight: 1})
		if err != nil {
			return false
		}
		for trial := 0; trial < 20; trial++ {
			x := []float64{rng.Float64() * 16, rng.Float64() * 4}
			p := tree.Predict(x)
			if p != mlcore.Negative && p != mlcore.Positive {
				return false
			}
			if s := tree.Score(x); s < 0 || s > 1 {
				return false
			}
			if tree.PathLen(x) > 5 {
				return false
			}
		}
		return tree.NumSplits() <= 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: the tree's training-set accuracy never falls below the
// majority-class baseline (it can always refuse to split).
func TestTreeBeatsOrMatchesMajority(t *testing.T) {
	rng := stats.NewRNG(22)
	for trial := 0; trial < 20; trial++ {
		d := &mlcore.Dataset{}
		n := 100 + rng.Intn(400)
		posFrac := rng.Float64()
		for i := 0; i < n; i++ {
			y := mlcore.Negative
			if rng.Bernoulli(posFrac) {
				y = mlcore.Positive
			}
			d.X = append(d.X, []float64{rng.Float64(), rng.Float64()})
			d.Y = append(d.Y, y)
		}
		neg, pos := d.CountLabels()
		if neg == 0 || pos == 0 {
			continue
		}
		majority := float64(neg) / float64(n)
		if pos > neg {
			majority = float64(pos) / float64(n)
		}
		tree, err := Train(d, Default(1))
		if err != nil {
			t.Fatal(err)
		}
		acc := mlcore.Evaluate(tree, d).Confusion.Accuracy()
		if acc+1e-9 < majority {
			t.Fatalf("trial %d: accuracy %.4f below majority %.4f", trial, acc, majority)
		}
	}
}
