package cart

import (
	"bytes"
	"container/heap"
	"fmt"
	"math"
	"sort"
	"testing"

	"otacache/internal/mlcore"
	"otacache/internal/stats"
)

// trainReference is the trainer before presorting: every node sorts its
// own rows on every candidate feature. It is kept, test-only, as the
// reference Train must reproduce bit for bit.
func trainReference(d *mlcore.Dataset, cfg Config) (*Tree, error) {
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

	rootIdx := make([]int, d.Len())
	for i := range rootIdx {
		rootIdx[i] = i
	}
	root := tr.makeNode(rootIdx)
	t := &Tree{root: root, cfg: cfg}

	var h candidateHeap
	if c := tr.bestSplitReference(root, rootIdx, 1); c != nil {
		heap.Push(&h, c)
	}
	for t.splits < cfg.MaxSplits && h.Len() > 0 {
		c := heap.Pop(&h).(*candidate)
		leftIdx, rightIdx := tr.partition(c.idx, c.feature, c.threshold)
		c.n.feature = c.feature
		c.n.threshold = c.threshold
		c.n.left = tr.makeNode(leftIdx)
		c.n.right = tr.makeNode(rightIdx)
		t.splits++
		if lc := tr.bestSplitReference(c.n.left, leftIdx, c.depth+1); lc != nil {
			heap.Push(&h, lc)
		}
		if rc := tr.bestSplitReference(c.n.right, rightIdx, c.depth+1); rc != nil {
			heap.Push(&h, rc)
		}
	}
	return t, nil
}

func (tr *trainer) bestSplitReference(n *node, idx []int, depth int) *candidate {
	if depth >= tr.cfg.MaxDepth || len(idx) < 2 {
		return nil
	}
	if n.wPos == 0 || n.wNeg == 0 {
		return nil // pure node
	}
	parentImpurity := gini(n.wPos, n.wNeg)
	total := n.wPos + n.wNeg

	features := tr.featureSet()
	best := candidate{n: n, idx: idx, depth: depth, gain: tr.cfg.MinGain, feature: -1}

	type pair struct {
		v    float64
		wPos float64
		wNeg float64
	}
	pairs := make([]pair, 0, len(idx))
	for _, f := range features {
		pairs = pairs[:0]
		for _, i := range idx {
			p := pair{v: tr.d.X[i][f]}
			if tr.d.Y[i] == mlcore.Positive {
				p.wPos = tr.w[i]
			} else {
				p.wNeg = tr.w[i]
			}
			pairs = append(pairs, p)
		}
		sort.Slice(pairs, func(a, b int) bool { return pairs[a].v < pairs[b].v })

		var lPos, lNeg float64
		for k := 0; k < len(pairs)-1; k++ {
			lPos += pairs[k].wPos
			lNeg += pairs[k].wNeg
			if pairs[k].v == pairs[k+1].v {
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
				best.threshold = (pairs[k].v + pairs[k+1].v) / 2
			}
		}
	}
	if best.feature < 0 {
		return nil
	}
	return &best
}

// refDataset draws a day-one-shaped sample: a few tie-heavy discrete
// columns beside continuous ones, and labels from a noisy score, so
// trees grow to the split budget with many near-equal gains.
func refDataset(n int, seed uint64, tieHeavy bool) *mlcore.Dataset {
	rng := stats.NewRNG(seed)
	d := &mlcore.Dataset{}
	for i := 0; i < n; i++ {
		kind := float64(rng.Intn(12))
		term := float64(rng.Intn(2))
		var views, age, friends float64
		if tieHeavy {
			views = float64(rng.Intn(8))
			age = float64(rng.Intn(5))
			friends = float64(rng.Intn(3))
		} else {
			views = math.Exp(rng.NormFloat64())
			age = rng.Float64() * 86400
			friends = float64(rng.Poisson(4))
		}
		score := 0.3*kind - 2*term + 0.8*math.Log1p(views) - age/40000 + 0.2*friends + 1.5*rng.NormFloat64()
		y := mlcore.Negative
		if score < 1.5 {
			y = mlcore.Positive
		}
		d.X = append(d.X, []float64{kind, term, views, age, friends})
		d.Y = append(d.Y, y)
	}
	return d
}

func serializeTree(t *testing.T, tree *Tree) []byte {
	t.Helper()
	var b bytes.Buffer
	if _, err := tree.WriteTo(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestTrainMatchesReference pins the presorted trainer to the per-node
// sort it replaced: on every configuration the serialized trees, leaf
// weights included, must be byte-identical.
func TestTrainMatchesReference(t *testing.T) {
	type tc struct {
		name string
		d    *mlcore.Dataset
		cfg  func() Config
	}
	var cases []tc
	for _, n := range []int{300, 3000, 20000} {
		for _, seed := range []uint64{1, 2, 3} {
			for _, v := range []float64{1, 2, 3} {
				v := v
				cases = append(cases, tc{fmt.Sprintf("n%d/seed%d/v%g", n, seed, v), refDataset(n, seed, false), func() Config { return Default(v) }})
			}
		}
	}
	for _, seed := range []uint64{4, 5} {
		cases = append(cases, tc{fmt.Sprintf("ties/seed%d", seed), refDataset(5000, seed, true), func() Config { return Default(2) }})
	}
	for _, seed := range []uint64{6, 7} {
		seed := seed
		cases = append(cases, tc{fmt.Sprintf("mtry/seed%d", seed), refDataset(4000, seed, false), func() Config {
			cfg := Default(2)
			cfg.MTry = 2
			cfg.Rand = stats.NewRNG(seed)
			return cfg
		}})
	}
	for _, seed := range []uint64{8, 9, 10} {
		d := refDataset(4000, seed, false)
		rng := stats.NewRNG(seed + 100)
		d.W = make([]float64, d.Len())
		for i := range d.W {
			d.W[i] = rng.Float64() * 2
		}
		cases = append(cases, tc{fmt.Sprintf("floatw/seed%d", seed), d, func() Config { return Default(2) }})
	}
	{
		d := refDataset(4000, 11, true)
		rng := stats.NewRNG(111)
		d.W = make([]float64, d.Len())
		for i := range d.W {
			d.W[i] = float64(rng.Poisson(1)) // bootstrap counts, zeros included
		}
		cases = append(cases, tc{"bootstrap/seed11", d, func() Config { return Default(1) }})
	}
	cases = append(cases,
		tc{"maxdepth3", refDataset(4000, 12, false), func() Config { return Config{MaxSplits: 30, MaxDepth: 3, MinLeafWeight: 3, NegCost: 2} }},
		tc{"minleaf200", refDataset(4000, 13, false), func() Config { return Config{MaxSplits: 30, MaxDepth: 25, MinLeafWeight: 200, NegCost: 2} }},
		tc{"mingain", refDataset(4000, 14, true), func() Config { return Config{MaxSplits: 100, MinGain: 1e-4, NegCost: 3} }},
	)

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want, err := trainReference(c.d, c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			got, err := Train(c.d, c.cfg())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(serializeTree(t, got), serializeTree(t, want)) {
				t.Fatalf("tree differs from reference: %d splits (height %d), want %d (height %d)",
					got.NumSplits(), got.Height(), want.NumSplits(), want.Height())
			}
		})
	}
}
