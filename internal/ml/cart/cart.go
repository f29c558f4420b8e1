// Package cart implements the CART decision tree (Breiman et al. 1984)
// the paper selects as its classifier (§3.1): binary splits on numeric
// features chosen by weighted Gini impurity, grown best-first under a
// split budget.
//
// Paper-relevant configuration:
//   - MaxSplits = 30, "approximately 3 times the number of features"
//     (§3.1.2), enforced as a global budget with best-first growth so
//     the most valuable splits are made before the budget runs out;
//   - cost-sensitive learning via a class weight v on negative
//     (non-one-time-access) samples, implementing the paper's cost
//     matrix (Table 4, §4.4.1);
//   - instance weights, which also serve AdaBoost (package adaboost);
//   - per-node feature subsampling, which serves random forests
//     (package forest).
package cart

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"otacache/internal/mlcore"
	"otacache/internal/stats"
)

// Config parameterizes tree induction. The zero value is usable;
// Default returns the paper's configuration.
type Config struct {
	// MaxSplits caps the number of internal nodes (the paper's "upper
	// limit of splitting times", 30). <=0 means 30.
	MaxSplits int
	// MaxDepth caps the tree height. <=0 means 25 (a safety bound; the
	// paper observes height ~5 in practice).
	MaxDepth int
	// MinLeafWeight is the minimum total sample weight in a leaf; splits
	// producing a lighter child are rejected. <=0 means 1.
	MinLeafWeight float64
	// MinGain is the minimum Gini decrease for a split to be made.
	MinGain float64
	// NegCost is the cost matrix's v: the penalty for classifying a
	// non-one-time-access photo as one-time (a false positive, which
	// causes a future cache miss). 0 means 1 (cost-insensitive).
	NegCost float64
	// MTry, if positive, restricts each node to a random subset of MTry
	// features (random-forest mode). Requires Rand.
	MTry int
	// Rand supplies randomness for feature subsampling. Only needed
	// when MTry > 0.
	Rand *stats.RNG
}

// Default returns the paper's configuration (§3.1.2, Table 4) with the
// given cost-matrix v.
func Default(negCost float64) Config {
	return Config{MaxSplits: 30, MaxDepth: 25, MinLeafWeight: 3, NegCost: negCost}
}

func (c *Config) normalize() {
	if c.MaxSplits <= 0 {
		c.MaxSplits = 30
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 25
	}
	if c.MinLeafWeight <= 0 {
		c.MinLeafWeight = 1
	}
	if c.NegCost <= 0 {
		c.NegCost = 1
	}
}

// node is a tree node; leaves have feature == -1.
type node struct {
	feature     int
	threshold   float64
	left, right *node
	// wPos and wNeg are the cost-adjusted sample weights that reached
	// this node during training (negatives already scaled by NegCost).
	wPos, wNeg float64
}

func (n *node) isLeaf() bool { return n.feature < 0 }

// Tree is a trained CART decision tree.
type Tree struct {
	root   *node
	splits int
	cfg    Config
}

var _ mlcore.Classifier = (*Tree)(nil)

// Name implements mlcore.Classifier.
func (t *Tree) Name() string { return "Decision Tree" }

// NumSplits returns the number of internal nodes.
func (t *Tree) NumSplits() int { return t.splits }

// Height returns the tree height (a single leaf has height 1). The
// paper reports height 5 in most cases, bounding prediction at five
// comparisons (§3.1.2).
func (t *Tree) Height() int { return height(t.root) }

func height(n *node) int {
	if n == nil {
		return 0
	}
	if n.isLeaf() {
		return 1
	}
	l, r := height(n.left), height(n.right)
	if l > r {
		return l + 1
	}
	return r + 1
}

// PathLen returns the number of comparisons made to classify x.
func (t *Tree) PathLen(x []float64) int {
	n := t.root
	steps := 0
	for !n.isLeaf() {
		steps++
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return steps
}

// Predict implements mlcore.Classifier: Positive iff the leaf's
// cost-adjusted positive weight dominates.
func (t *Tree) Predict(x []float64) int {
	n := t.leaf(x)
	if n.wPos > n.wNeg {
		return mlcore.Positive
	}
	return mlcore.Negative
}

// Score implements mlcore.Classifier: the leaf's cost-adjusted positive
// fraction.
func (t *Tree) Score(x []float64) float64 {
	n := t.leaf(x)
	total := n.wPos + n.wNeg
	if total == 0 {
		return 0.5
	}
	return n.wPos / total
}

func (t *Tree) leaf(x []float64) *node {
	n := t.root
	for !n.isLeaf() {
		if x[n.feature] <= n.threshold {
			n = n.left
		} else {
			n = n.right
		}
	}
	return n
}

// candidate is a node awaiting its best split, prioritized by gain.
type candidate struct {
	n     *node
	idx   []int // row indices reaching the node, in row order
	depth int
	// lo and hi bound the node's range in every presorted column.
	lo, hi int
	// best split found for this node:
	gain      float64
	feature   int
	threshold float64
}

type candidateHeap []*candidate

func (h candidateHeap) Len() int            { return len(h) }
func (h candidateHeap) Less(i, j int) bool  { return h[i].gain > h[j].gain }
func (h candidateHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *candidateHeap) Push(x interface{}) { *h = append(*h, x.(*candidate)) }
func (h *candidateHeap) Pop() interface{} {
	old := *h
	n := len(old)
	c := old[n-1]
	*h = old[:n-1]
	return c
}

// trainer carries induction state.
type trainer struct {
	d   *mlcore.Dataset
	cfg Config
	// adjusted weight per row: sample weight x class cost.
	w []float64

	// cols[f] holds every row's value of feature f in ascending order.
	// Each open node owns the same range [lo, hi) of every column, so
	// its split search is a linear scan.
	cols [][]entry
	// left marks, per row, the side of the split being applied.
	left []bool
	// scratch holds the right-going entries while a range is
	// partitioned.
	scratch []entry
}

// entry is one row's value in a presorted column.
type entry struct {
	v   float64
	row int
}

// byValue orders entries by value. It returns -1 exactly when
// a.v < b.v, so pdqsort makes the same comparisons and swaps as a sort
// by that less function, and the root's order matches sorting its rows
// with sort.Slice (TestTrainMatchesReference). NaN never reaches it:
// Dataset.Validate rejects non-finite features.
func byValue(a, b entry) int {
	switch {
	case a.v < b.v:
		return -1
	case a.v > b.v:
		return 1
	}
	return 0
}

// Train grows a tree on the dataset under the configuration.
//
// Every column is sorted once, up front. A split partitions each
// column's range stably, so both children's ranges stay sorted and no
// node sorts again. The result equals sorting every node's rows
// afresh: at the root the scan order is the same sort of the same
// sequence, and below it only the order inside runs of equal values
// can differ. A cut falls only between distinct values, so each
// candidate's class weights sum the same rows, in an order that is
// exact for integer weights.
func Train(d *mlcore.Dataset, cfg Config) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("cart: empty dataset")
	}
	cfg.normalize()
	if cfg.MTry > 0 && cfg.Rand == nil {
		return nil, fmt.Errorf("cart: MTry > 0 requires Rand")
	}
	tr := &trainer{d: d, cfg: cfg, w: make([]float64, d.Len())}
	for i := range tr.w {
		tr.w[i] = d.Weight(i)
		if d.Y[i] == mlcore.Negative {
			tr.w[i] *= cfg.NegCost
		}
	}
	tr.presort()

	rootIdx := make([]int, d.Len())
	for i := range rootIdx {
		rootIdx[i] = i
	}
	root := tr.makeNode(rootIdx)
	t := &Tree{root: root, cfg: cfg}

	var h candidateHeap
	if c := tr.bestSplit(root, rootIdx, 0, d.Len(), 1); c != nil {
		heap.Push(&h, c)
	}
	for t.splits < cfg.MaxSplits && h.Len() > 0 {
		c := heap.Pop(&h).(*candidate)
		leftIdx, rightIdx := tr.partition(c.idx, c.feature, c.threshold)
		mid := tr.splitColumns(c)
		c.n.feature = c.feature
		c.n.threshold = c.threshold
		c.n.left = tr.makeNode(leftIdx)
		c.n.right = tr.makeNode(rightIdx)
		t.splits++
		if lc := tr.bestSplit(c.n.left, leftIdx, c.lo, mid, c.depth+1); lc != nil {
			heap.Push(&h, lc)
		}
		if rc := tr.bestSplit(c.n.right, rightIdx, mid, c.hi, c.depth+1); rc != nil {
			heap.Push(&h, rc)
		}
	}
	return t, nil
}

// presort builds one sorted column per feature, sorting the columns in
// parallel.
func (tr *trainer) presort() {
	n := tr.d.Len()
	tr.cols = make([][]entry, tr.d.NumFeatures())
	tr.left = make([]bool, n)
	tr.scratch = make([]entry, 0, n)
	var wg sync.WaitGroup
	for f := range tr.cols {
		wg.Add(1)
		go func(f int) {
			defer wg.Done()
			col := make([]entry, n)
			for i, row := range tr.d.X {
				col[i] = entry{v: row[f], row: i}
			}
			slices.SortFunc(col, byValue)
			tr.cols[f] = col
		}(f)
	}
	wg.Wait()
}

// splitColumns applies c's split to the presorted columns: every
// column's range [c.lo, c.hi) is partitioned stably into the rows with
// x[c.feature] <= c.threshold followed by the rest. It returns the
// boundary between the two children's ranges.
func (tr *trainer) splitColumns(c *candidate) (mid int) {
	mid = c.lo
	for _, e := range tr.cols[c.feature][c.lo:c.hi] {
		goLeft := e.v <= c.threshold
		tr.left[e.row] = goLeft
		if goLeft {
			mid++
		}
	}
	for f, col := range tr.cols {
		if f == c.feature {
			continue // already ordered by the split value
		}
		r := col[c.lo:c.hi]
		right := tr.scratch[:0]
		k := 0
		for _, e := range r {
			if tr.left[e.row] {
				r[k] = e
				k++
			} else {
				right = append(right, e)
			}
		}
		copy(r[k:], right)
	}
	return mid
}

// makeNode builds a leaf holding the rows' class weights.
func (tr *trainer) makeNode(idx []int) *node {
	n := &node{feature: -1}
	for _, i := range idx {
		if tr.d.Y[i] == mlcore.Positive {
			n.wPos += tr.w[i]
		} else {
			n.wNeg += tr.w[i]
		}
	}
	return n
}

func gini(wPos, wNeg float64) float64 {
	total := wPos + wNeg
	if total == 0 {
		return 0
	}
	p := wPos / total
	q := wNeg / total
	return 1 - p*p - q*q
}

// bestSplit evaluates every admissible (feature, threshold) for the
// node, whose rows occupy [lo, hi) of every presorted column, and
// returns the best candidate, or nil if the node should stay a leaf.
func (tr *trainer) bestSplit(n *node, idx []int, lo, hi, depth int) *candidate {
	if depth >= tr.cfg.MaxDepth || len(idx) < 2 {
		return nil
	}
	if n.wPos == 0 || n.wNeg == 0 {
		return nil // pure node
	}
	parentImpurity := gini(n.wPos, n.wNeg)
	total := n.wPos + n.wNeg

	features := tr.featureSet()
	best := candidate{n: n, idx: idx, lo: lo, hi: hi, depth: depth, gain: tr.cfg.MinGain, feature: -1}

	for _, f := range features {
		col := tr.cols[f][lo:hi]
		var lPos, lNeg float64
		for k := 0; k < len(col)-1; k++ {
			i := col[k].row
			if tr.d.Y[i] == mlcore.Positive {
				lPos += tr.w[i]
			} else {
				lNeg += tr.w[i]
			}
			if col[k].v == col[k+1].v {
				continue // can only cut between distinct values
			}
			rPos := n.wPos - lPos
			rNeg := n.wNeg - lNeg
			lw, rw := lPos+lNeg, rPos+rNeg
			if lw < tr.cfg.MinLeafWeight || rw < tr.cfg.MinLeafWeight {
				continue
			}
			g := parentImpurity - (lw*gini(lPos, lNeg)+rw*gini(rPos, rNeg))/total
			if g > best.gain {
				best.gain = g
				best.feature = f
				best.threshold = (col[k].v + col[k+1].v) / 2
			}
		}
	}
	if best.feature < 0 {
		return nil
	}
	return &best
}

// featureSet returns the feature columns to consider at one node.
func (tr *trainer) featureSet() []int {
	nf := tr.d.NumFeatures()
	all := make([]int, nf)
	for i := range all {
		all[i] = i
	}
	if tr.cfg.MTry <= 0 || tr.cfg.MTry >= nf {
		return all
	}
	tr.cfg.Rand.Shuffle(nf, func(i, j int) { all[i], all[j] = all[j], all[i] })
	return all[:tr.cfg.MTry]
}

// partition splits rows by the test x[feature] <= threshold.
func (tr *trainer) partition(idx []int, feature int, threshold float64) (left, right []int) {
	for _, i := range idx {
		if tr.d.X[i][feature] <= threshold {
			left = append(left, i)
		} else {
			right = append(right, i)
		}
	}
	return
}
