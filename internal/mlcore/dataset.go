// Package mlcore provides the shared machine-learning substrate: the
// dataset representation, train/test splitting and cross-validation,
// classification metrics (precision, recall, accuracy, AUC — Tables 2
// and 3 of the paper), entropy/information-gain computation for feature
// selection, and feature discretization/scaling.
//
// All seven classifier packages (cart, bayes, knn, logreg, neural,
// adaboost, forest) train from a *Dataset and return a Classifier.
package mlcore

import (
	"fmt"
	"math"

	"otacache/internal/stats"
)

// Label values for the binary one-time-access problem. Positive means
// "one-time access" (will not be re-accessed within the criteria's
// reaccess distance M), matching the paper's confusion-matrix
// orientation (Table 2).
const (
	Negative = 0
	Positive = 1
)

// Dataset is a dense feature matrix with binary labels and optional
// per-sample weights (used by cost-sensitive learning and boosting).
type Dataset struct {
	// X holds one row per sample; all rows have equal length.
	X [][]float64
	// Y holds the labels, Negative or Positive.
	Y []int
	// W holds optional per-sample weights. nil means uniform weights.
	W []float64
	// Names holds one name per feature column (optional, for reports).
	Names []string
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.X) }

// NumFeatures returns the feature dimensionality (0 if empty).
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Weight returns sample i's weight (1 if unweighted).
func (d *Dataset) Weight(i int) float64 {
	if d.W == nil {
		return 1
	}
	return d.W[i]
}

// Validate reports the first structural problem found, or nil. Every
// feature must be finite and every weight finite and non-negative: the
// trainers order rows by value, cut midway between values and sum
// weights, none of which means anything for NaN or ±Inf.
func (d *Dataset) Validate() error {
	if len(d.X) != len(d.Y) {
		return fmt.Errorf("mlcore: %d feature rows but %d labels", len(d.X), len(d.Y))
	}
	if d.W != nil && len(d.W) != len(d.X) {
		return fmt.Errorf("mlcore: %d feature rows but %d weights", len(d.X), len(d.W))
	}
	nf := d.NumFeatures()
	for i, row := range d.X {
		if len(row) != nf {
			return fmt.Errorf("mlcore: row %d has %d features, want %d", i, len(row), nf)
		}
		for f, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return fmt.Errorf("mlcore: feature %d at row %d is %v", f, i, v)
			}
		}
	}
	for i, y := range d.Y {
		if y != Negative && y != Positive {
			return fmt.Errorf("mlcore: label %d at row %d is not binary", y, i)
		}
	}
	for i, w := range d.W {
		if math.IsNaN(w) || math.IsInf(w, 0) || w < 0 {
			return fmt.Errorf("mlcore: weight %v at row %d is not a finite non-negative number", w, i)
		}
	}
	if d.Names != nil && len(d.Names) != nf {
		return fmt.Errorf("mlcore: %d feature names for %d features", len(d.Names), nf)
	}
	return nil
}

// Subset returns a view of the dataset restricted to the given row
// indices. Rows are shared, not copied.
func (d *Dataset) Subset(idx []int) *Dataset {
	s := &Dataset{
		X:     make([][]float64, len(idx)),
		Y:     make([]int, len(idx)),
		Names: d.Names,
	}
	if d.W != nil {
		s.W = make([]float64, len(idx))
	}
	for j, i := range idx {
		s.X[j] = d.X[i]
		s.Y[j] = d.Y[i]
		if d.W != nil {
			s.W[j] = d.W[i]
		}
	}
	return s
}

// SelectFeatures returns a copy of the dataset keeping only the given
// feature columns, in the given order.
func (d *Dataset) SelectFeatures(cols []int) *Dataset {
	s := &Dataset{
		X: make([][]float64, len(d.X)),
		Y: d.Y,
		W: d.W,
	}
	if d.Names != nil {
		s.Names = make([]string, len(cols))
		for j, c := range cols {
			s.Names[j] = d.Names[c]
		}
	}
	for i, row := range d.X {
		nr := make([]float64, len(cols))
		for j, c := range cols {
			nr[j] = row[c]
		}
		s.X[i] = nr
	}
	return s
}

// CountLabels returns the number of negative and positive samples.
func (d *Dataset) CountLabels() (neg, pos int) {
	for _, y := range d.Y {
		if y == Positive {
			pos++
		} else {
			neg++
		}
	}
	return
}

// StratifiedSplit partitions the dataset into train and test sets with
// the given test fraction, preserving the class balance in both parts.
func (d *Dataset) StratifiedSplit(rng *stats.RNG, testFrac float64) (train, test *Dataset) {
	var posIdx, negIdx []int
	for i, y := range d.Y {
		if y == Positive {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}
	rng.Shuffle(len(posIdx), func(i, j int) { posIdx[i], posIdx[j] = posIdx[j], posIdx[i] })
	rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })
	cutPos := int(float64(len(posIdx)) * testFrac)
	cutNeg := int(float64(len(negIdx)) * testFrac)
	testIdx := append(append([]int{}, posIdx[:cutPos]...), negIdx[:cutNeg]...)
	trainIdx := append(append([]int{}, posIdx[cutPos:]...), negIdx[cutNeg:]...)
	return d.Subset(trainIdx), d.Subset(testIdx)
}

// Fold is one cross-validation fold.
type Fold struct {
	Train, Test *Dataset
}

// KFold returns k stratified cross-validation folds. Every sample
// appears in exactly one test set.
func (d *Dataset) KFold(rng *stats.RNG, k int) []Fold {
	if k < 2 {
		k = 2
	}
	var posIdx, negIdx []int
	for i, y := range d.Y {
		if y == Positive {
			posIdx = append(posIdx, i)
		} else {
			negIdx = append(negIdx, i)
		}
	}
	rng.Shuffle(len(posIdx), func(i, j int) { posIdx[i], posIdx[j] = posIdx[j], posIdx[i] })
	rng.Shuffle(len(negIdx), func(i, j int) { negIdx[i], negIdx[j] = negIdx[j], negIdx[i] })

	testSets := make([][]int, k)
	for j, i := range posIdx {
		testSets[j%k] = append(testSets[j%k], i)
	}
	for j, i := range negIdx {
		testSets[j%k] = append(testSets[j%k], i)
	}
	folds := make([]Fold, k)
	for f := 0; f < k; f++ {
		inTest := make(map[int]bool, len(testSets[f]))
		for _, i := range testSets[f] {
			inTest[i] = true
		}
		var trainIdx []int
		for i := range d.Y {
			if !inTest[i] {
				trainIdx = append(trainIdx, i)
			}
		}
		folds[f] = Fold{Train: d.Subset(trainIdx), Test: d.Subset(testSets[f])}
	}
	return folds
}

// Classifier is a trained binary classifier. Predict returns the class;
// Score returns a monotone confidence for the Positive class, used for
// ROC/AUC computation.
type Classifier interface {
	// Name returns the algorithm's display name (as in Table 1).
	Name() string
	// Predict returns Negative or Positive for a feature vector.
	Predict(x []float64) int
	// Score returns a value that increases with the probability of the
	// Positive class (not necessarily a calibrated probability).
	Score(x []float64) float64
}
