// Package labeling implements the paper's one-time-access criteria
// (§4.3): an access is labelled one-time when its reaccess distance
// exceeds M = C / (S·(1-h)·(1-p)), the number of replacements after
// which an un-reaccessed object will have been evicted from a cache of
// C bytes holding objects of mean size S at hit rate h, with a fraction
// p of misses bypassed.
//
// M is found by the paper's fixed-point iteration: start from p = 0,
// compute M, re-measure p against the trace, repeat (3 iterations
// suffice empirically, §4.3).
package labeling

import (
	"fmt"

	"otacache/internal/cache"
	"otacache/internal/mlcore"
	"otacache/internal/trace"
)

// Criteria is a solved one-time-access criteria.
type Criteria struct {
	// M is the reaccess-distance threshold: accesses whose next access
	// to the same object lies more than M requests ahead (or never
	// comes) are one-time.
	M int
	// HitRate is the h used in the model (estimated or supplied).
	HitRate float64
	// OneTimeP is the converged fraction p of one-time accesses.
	OneTimeP float64
	// CacheBytes and MeanObjBytes are the C and S of the model.
	CacheBytes   int64
	MeanObjBytes int64
}

// String renders the criteria compactly.
func (c Criteria) String() string {
	return fmt.Sprintf("M=%d (C=%d MB, S=%d KB, h=%.3f, p=%.3f)",
		c.M, c.CacheBytes>>20, c.MeanObjBytes>>10, c.HitRate, c.OneTimeP)
}

// modelM evaluates M = C/(S(1-h)(1-p)) with clamping against the
// degenerate corners (h or p -> 1).
func modelM(cacheBytes, meanSize int64, h, p float64) int {
	if meanSize <= 0 {
		meanSize = 1
	}
	if h > 0.999 {
		h = 0.999
	}
	if h < 0 {
		h = 0
	}
	if p > 0.999 {
		p = 0.999
	}
	if p < 0 {
		p = 0
	}
	m := float64(cacheBytes) / (float64(meanSize) * (1 - h) * (1 - p))
	if m < 1 {
		m = 1
	}
	return int(m)
}

// measureP returns the fraction of accesses whose reaccess distance
// exceeds m (or that are never reaccessed).
func measureP(next []int, m int) float64 {
	if len(next) == 0 {
		return 0
	}
	cnt := 0
	for i, n := range next {
		if n == trace.NoNext || n-i > m {
			cnt++
		}
	}
	return float64(cnt) / float64(len(next))
}

// Solve runs the fixed-point iteration for a cache of cacheBytes over
// the given trace. h is the expected hit rate; use EstimateHitRate for
// a measured value. iters <= 0 defaults to the paper's 3.
func Solve(tr *trace.Trace, next []int, cacheBytes int64, h float64, iters int) Criteria {
	if iters <= 0 {
		iters = 3
	}
	meanSize := tr.MeanPhotoSize()
	p := 0.0
	m := modelM(cacheBytes, meanSize, h, p)
	for k := 0; k < iters; k++ {
		p = measureP(next, m)
		m = modelM(cacheBytes, meanSize, h, p)
	}
	return Criteria{
		M:            m,
		HitRate:      h,
		OneTimeP:     p,
		CacheBytes:   cacheBytes,
		MeanObjBytes: meanSize,
	}
}

// ForPolicy adapts a solved LRU criteria to another policy. Per §5.2,
// LIRS uses M_LIRS = M_LRU * Rs where Rs is the LIR share of the cache;
// the criteria for LRU, ARC, S3LRU and FIFO are identical.
func (c Criteria) ForPolicy(policyName string, lirRatio float64) Criteria {
	if policyName != "lirs" {
		return c
	}
	out := c
	if lirRatio <= 0 || lirRatio > 1 {
		lirRatio = cache.DefaultLIRRatio
	}
	out.M = int(float64(c.M) * lirRatio)
	if out.M < 1 {
		out.M = 1
	}
	return out
}

// HitRateSampleRequests is how many leading requests the LRU pass that
// measures h replays for the criteria solve, in the simulator and the
// daemon alike (tier.Solve). Replaying the whole trace instead would
// add a full-trace LRU pass to the daemon's start-up, and at 200 000
// photos it raised the proposal's byte write rate by 4.3 % (DESIGN.md
// §6b).
const HitRateSampleRequests = 200000

// EstimateHitRate runs a plain LRU simulation over the trace's first
// maxRequests accesses (the whole trace when maxRequests <= 0) and
// returns the file hit rate, the paper's suggested way of obtaining h
// for the model (§4.3). Criteria solving passes HitRateSampleRequests.
func EstimateHitRate(tr *trace.Trace, cacheBytes int64, maxRequests int) float64 {
	n := len(tr.Requests)
	if maxRequests > 0 && maxRequests < n {
		n = maxRequests
	}
	if n == 0 {
		return 0
	}
	lru := cache.NewLRU(cacheBytes)
	hits := 0
	for i := 0; i < n; i++ {
		r := &tr.Requests[i]
		if lru.Get(uint64(r.Photo), i) {
			hits++
		} else {
			lru.Admit(uint64(r.Photo), tr.Photos[r.Photo].Size, i)
		}
	}
	return float64(hits) / float64(n)
}

// Labels returns the per-request one-time labels under the criteria:
// Positive when the reaccess distance exceeds c.M or the object is
// never accessed again.
func Labels(next []int, c Criteria) []int {
	labels := make([]int, len(next))
	for i, n := range next {
		if n == trace.NoNext || n-i > c.M {
			labels[i] = mlcore.Positive
		} else {
			labels[i] = mlcore.Negative
		}
	}
	return labels
}

// IsOneTime reports whether request i is one-time under the criteria.
func IsOneTime(next []int, i int, c Criteria) bool {
	n := next[i]
	return n == trace.NoNext || n-i > c.M
}
