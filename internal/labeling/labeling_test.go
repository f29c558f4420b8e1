package labeling

import (
	"math"
	"testing"

	"otacache/internal/mlcore"
	"otacache/internal/trace"
)

func genTrace(t testing.TB) (*trace.Trace, []int) {
	tr := trace.MustGenerate(trace.DefaultConfig(11, 8000))
	return tr, trace.BuildNextAccess(tr)
}

func TestModelMFormula(t *testing.T) {
	// M = C/(S(1-h)(1-p)): 1 GB cache, 32 KB objects, h=0.5, p=0 -> 65536.
	if m := modelM(1<<30, 32<<10, 0.5, 0); m != 65536 {
		t.Fatalf("M = %d, want 65536", m)
	}
	// p = 0.5 doubles M again.
	if m := modelM(1<<30, 32<<10, 0.5, 0.5); m != 131072 {
		t.Fatalf("M = %d, want 131072", m)
	}
	// Degenerate corners clamp instead of exploding.
	if m := modelM(1<<30, 32<<10, 1.5, 0); m <= 0 {
		t.Fatalf("clamped M = %d", m)
	}
	if m := modelM(100, 0, 0, 0); m != 100 {
		t.Fatalf("zero mean size: M = %d", m)
	}
	if m := modelM(0, 1, 0, 0); m != 1 {
		t.Fatalf("M floor = %d, want 1", m)
	}
}

func TestMeasureP(t *testing.T) {
	// next-access gaps: [2, never, never]: with m=1 all three are
	// one-time (distance 2 > 1); with m=2 only two.
	next := []int{2, trace.NoNext, trace.NoNext}
	if p := measureP(next, 1); math.Abs(p-1) > 1e-12 {
		t.Fatalf("p(m=1) = %v", p)
	}
	if p := measureP(next, 2); math.Abs(p-2.0/3.0) > 1e-12 {
		t.Fatalf("p(m=2) = %v", p)
	}
	if measureP(nil, 5) != 0 {
		t.Fatal("empty p must be 0")
	}
}

func TestSolveConverges(t *testing.T) {
	tr, next := genTrace(t)
	c := Solve(tr, next, 256<<20, 0.5, 3)
	if c.M < 1 {
		t.Fatalf("M = %d", c.M)
	}
	if c.OneTimeP <= 0 || c.OneTimeP >= 1 {
		t.Fatalf("p = %v", c.OneTimeP)
	}
	// One more iteration must barely move M (fixed point).
	c4 := Solve(tr, next, 256<<20, 0.5, 4)
	rel := math.Abs(float64(c4.M-c.M)) / float64(c.M)
	if rel > 0.15 {
		t.Fatalf("M not converged after 3 iters: %d vs %d", c.M, c4.M)
	}
}

func TestSolveMGrowsWithCache(t *testing.T) {
	tr, next := genTrace(t)
	m1 := Solve(tr, next, 64<<20, 0.5, 3).M
	m2 := Solve(tr, next, 512<<20, 0.5, 3).M
	if m2 <= m1 {
		t.Fatalf("M must grow with capacity: %d vs %d", m1, m2)
	}
}

func TestForPolicy(t *testing.T) {
	c := Criteria{M: 1000}
	lirs := c.ForPolicy("lirs", 0.9)
	if lirs.M != 900 {
		t.Fatalf("M_LIRS = %d, want 900", lirs.M)
	}
	same := c.ForPolicy("arc", 0.9)
	if same.M != 1000 {
		t.Fatalf("M_ARC = %d, want unchanged", same.M)
	}
	// Invalid ratio falls back to the default LIR share.
	fb := c.ForPolicy("lirs", 0)
	if fb.M != 900 {
		t.Fatalf("fallback M = %d, want 900", fb.M)
	}
	// M floor.
	tiny := Criteria{M: 1}.ForPolicy("lirs", 0.5)
	if tiny.M < 1 {
		t.Fatal("M must stay >= 1")
	}
}

func TestLabelsMatchCriteria(t *testing.T) {
	next := []int{5, trace.NoNext, 3, 7, trace.NoNext, trace.NoNext, trace.NoNext, trace.NoNext}
	c := Criteria{M: 3}
	labels := Labels(next, c)
	// distances: 5 (>3: pos), never (pos), 1 (neg), 4 (>3: pos), ...
	want := []int{1, 1, 0, 1, 1, 1, 1, 1}
	for i := range want {
		if labels[i] != want[i] {
			t.Fatalf("label[%d] = %d, want %d", i, labels[i], want[i])
		}
		if (labels[i] == mlcore.Positive) != IsOneTime(next, i, c) {
			t.Fatalf("IsOneTime disagrees with Labels at %d", i)
		}
	}
}

func TestEstimateHitRate(t *testing.T) {
	tr, _ := genTrace(t)
	h := EstimateHitRate(tr, 256<<20, HitRateSampleRequests)
	if h <= 0 || h >= 1 {
		t.Fatalf("hit rate = %v", h)
	}
	// A bigger cache hits at least as often.
	h2 := EstimateHitRate(tr, 1<<30, HitRateSampleRequests)
	if h2 < h {
		t.Fatalf("bigger cache hit rate dropped: %v -> %v", h, h2)
	}
	// Truncated estimate also valid.
	ht := EstimateHitRate(tr, 256<<20, len(tr.Requests)/4)
	if ht < 0 || ht > 1 {
		t.Fatalf("truncated hit rate = %v", ht)
	}
	if EstimateHitRate(&trace.Trace{}, 100, HitRateSampleRequests) != 0 {
		t.Fatal("empty trace hit rate must be 0")
	}
}

func TestCriteriaString(t *testing.T) {
	c := Criteria{M: 5, CacheBytes: 2 << 20, MeanObjBytes: 4 << 10, HitRate: 0.5, OneTimeP: 0.3}
	if len(c.String()) == 0 {
		t.Fatal("empty criteria string")
	}
}

// Property: p measured at larger M can only shrink (the paper's
// monotone feedback p-up -> M-up -> p-down).
func TestMeasurePMonotone(t *testing.T) {
	_, next := genTrace(t)
	prev := 1.1
	for _, m := range []int{1, 10, 100, 1000, 10000, 100000} {
		p := measureP(next, m)
		if p > prev {
			t.Fatalf("p(m=%d) = %v > previous %v", m, p, prev)
		}
		prev = p
	}
}
