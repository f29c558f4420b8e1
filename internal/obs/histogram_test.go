package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"
)

// exactQuantile mirrors HistogramSnapshot.Quantile's rank convention on
// the raw values: the rank-ceil(q·n) smallest observation.
func exactQuantile(sorted []int64, q float64) int64 {
	rank := int(math.Ceil(q * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// streams generates the randomized value streams the property tests
// run over: distinct shapes so bucket boundaries, the exact small-value
// range, and the wide tail all get exercised. Seeded — reruns are
// identical.
func streams(r *rand.Rand) map[string][]int64 {
	uniform := make([]int64, 5000)
	for i := range uniform {
		uniform[i] = r.Int63n(1_000_000)
	}
	logUniform := make([]int64, 5000)
	for i := range logUniform {
		logUniform[i] = int64(math.Exp(r.Float64() * 40)) // 1ns .. ~2^57ns
	}
	small := make([]int64, 2000)
	for i := range small {
		small[i] = r.Int63n(subCount + 2) // straddles the exact range
	}
	spiky := make([]int64, 3000)
	for i := range spiky {
		if r.Intn(100) == 0 {
			spiky[i] = 50_000_000 + r.Int63n(1_000_000) // 50ms tail
		} else {
			spiky[i] = 200 + r.Int63n(100) // ~200ns body
		}
	}
	return map[string][]int64{
		"uniform": uniform, "logUniform": logUniform, "small": small, "spiky": spiky,
	}
}

// TestQuantilePropertyWithinOneBucket is the quantile half of the
// histogram property test: for randomized streams, Quantile(q) lands in
// the same log-bucket as the exact quantile, which bounds its relative
// error by the bucket scheme (exact below subCount, ≤ 25% above).
func TestQuantilePropertyWithinOneBucket(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for name, vals := range streams(r) {
		h := NewHistogram()
		for _, v := range vals {
			h.Record(v)
		}
		sorted := append([]int64(nil), vals...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		for _, q := range []float64{0, 0.01, 0.1, 0.5, 0.9, 0.99, 0.999, 1} {
			got := h.Quantile(q)
			exact := exactQuantile(sorted, q)
			gotBucket := bucketIndex(int64(got))
			exactBucket := bucketIndex(exact)
			if d := gotBucket - exactBucket; d < -1 || d > 1 {
				t.Errorf("%s: Quantile(%g) = %g (bucket %d), exact %d (bucket %d): off by %d buckets",
					name, q, got, gotBucket, exact, exactBucket, d)
			}
			if exact >= subCount {
				if rel := math.Abs(got-float64(exact)) / float64(exact); rel > 0.25 {
					t.Errorf("%s: Quantile(%g) = %g, exact %d: relative error %.3f exceeds the 25%% bucket bound",
						name, q, got, exact, rel)
				}
			} else if int64(got) != exact {
				t.Errorf("%s: Quantile(%g) = %g, want exactly %d in the exact small-value range",
					name, q, got, exact)
			}
		}
	}
}

// TestMergePropertyValueIdentical is the merge half: recording a stream
// into one histogram and partitioning it across K histograms then
// merging is value-identical, bucket for bucket.
func TestMergePropertyValueIdentical(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for name, vals := range streams(r) {
		for _, k := range []int{2, 3, 8} {
			single := NewHistogram()
			parts := make([]*Histogram, k)
			for i := range parts {
				parts[i] = NewHistogram()
			}
			for i, v := range vals {
				single.Record(v)
				parts[i%k].Record(v)
			}
			merged := NewHistogram()
			for _, p := range parts {
				merged.Merge(p)
			}
			if got, want := merged.Snapshot(), single.Snapshot(); got != want {
				t.Errorf("%s: merge of %d shards differs from single recording: count %d vs %d, sum %d vs %d",
					name, k, got.Count, want.Count, got.Sum, want.Sum)
			}
		}
	}
}

func TestBucketIndexBounds(t *testing.T) {
	for _, v := range []int64{0, 1, 2, 3, 4, 5, 7, 8, 100, 1023, 1024, 1025,
		1 << 30, 1<<62 - 1, 1 << 62, math.MaxInt64} {
		i := bucketIndex(v)
		if i < 0 || i >= NumBuckets {
			t.Fatalf("bucketIndex(%d) = %d out of range", v, i)
		}
		lo, hi := BucketBounds(i)
		if v < lo || v > hi {
			t.Errorf("value %d mapped to bucket %d = [%d, %d] which does not contain it", v, i, lo, hi)
		}
		// Bucket width bounds the relative error above the exact range.
		if v >= subCount && hi-lo+1 > lo/subCount+1 {
			t.Errorf("bucket %d = [%d, %d]: width %d exceeds lo/%d", i, lo, hi, hi-lo+1, subCount)
		}
	}
	if bucketIndex(-5) != 0 {
		t.Errorf("negative values must clamp to bucket 0")
	}
	// Buckets tile the line with no gaps or overlaps.
	prevHi := int64(-1)
	for i := 0; i <= bucketIndex(math.MaxInt64); i++ {
		lo, hi := BucketBounds(i)
		if lo != prevHi+1 {
			t.Fatalf("bucket %d starts at %d, want %d (gap or overlap)", i, lo, prevHi+1)
		}
		if hi < lo {
			t.Fatalf("bucket %d = [%d, %d] inverted", i, lo, hi)
		}
		prevHi = hi
	}
}

func TestHistogramCountSum(t *testing.T) {
	h := NewHistogram()
	h.Record(-3) // clamped, excluded from sum
	h.Record(0)
	h.Record(10)
	h.Record(int64(5 * time.Microsecond))
	s := h.Snapshot()
	if s.Count != 4 {
		t.Errorf("Count = %d, want 4 (every record counts, clamped or not)", s.Count)
	}
	if want := int64(10 + 5000); s.Sum != want {
		t.Errorf("Sum = %d, want %d", s.Sum, want)
	}
	if s.Counts[0] != 2 {
		t.Errorf("bucket 0 = %d, want 2 (the clamped and the zero record)", s.Counts[0])
	}
}

func TestSnapshotAddSub(t *testing.T) {
	h := NewHistogram()
	for i := int64(1); i <= 100; i++ {
		h.Record(i)
	}
	before := h.Snapshot()
	for i := int64(1); i <= 50; i++ {
		h.Record(i * 1000)
	}
	after := h.Snapshot()
	interval := after.Sub(before)
	if interval.Count != 50 {
		t.Errorf("interval Count = %d, want 50", interval.Count)
	}
	if got := before.Add(interval); got != after {
		t.Errorf("before.Add(interval) != after")
	}
}

func TestQuantileEmpty(t *testing.T) {
	if q := NewHistogram().Quantile(0.5); !math.IsNaN(q) {
		t.Errorf("Quantile on empty histogram = %g, want NaN", q)
	}
}

// TestConcurrentRecorders hammers one histogram from parallel
// goroutines (the -race build makes this a memory-model check too) and
// verifies no observation is lost.
func TestConcurrentRecorders(t *testing.T) {
	h := NewHistogram()
	const goroutines, per = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < per; i++ {
				h.Record(r.Int63n(1 << 30))
			}
		}(int64(g))
	}
	// Concurrent snapshots must observe a consistent-enough view (each
	// counter individually exact; totals monotone).
	done := make(chan struct{})
	go func() {
		defer close(done)
		var last uint64
		for i := 0; i < 100; i++ {
			s := h.Snapshot()
			if s.Count < last {
				t.Errorf("snapshot Count went backwards: %d after %d", s.Count, last)
				return
			}
			last = s.Count
		}
	}()
	wg.Wait()
	<-done
	if s := h.Snapshot(); s.Count != goroutines*per {
		t.Errorf("lost records: Count = %d, want %d", s.Count, goroutines*per)
	}
}

func TestSampler(t *testing.T) {
	s := NewSampler(1)
	for i := 0; i < 10; i++ {
		if !s.Hit() {
			t.Fatal("Sampler(1) must fire every call")
		}
	}
	sN := NewSampler(8)
	hits := 0
	const calls = 64000
	for i := 0; i < calls; i++ {
		if sN.Hit() {
			hits++
		}
	}
	// Single-goroutine calls all land on one shard counter, so the rate
	// is exact up to the final partial period.
	if want := calls / 8; hits < want-1 || hits > want+1 {
		t.Errorf("Sampler(8) fired %d of %d, want ~%d", hits, calls, want)
	}
}
