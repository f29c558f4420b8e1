package trace

import (
	"slices"
	"testing"
	"testing/quick"

	"otacache/internal/stats"
)

func newTestRNG() *stats.RNG { return stats.NewRNG(12345) }

// tinyTrace builds a trace with an explicit photo sequence.
func tinyTrace(photos ...uint32) *Trace {
	maxP := uint32(0)
	for _, p := range photos {
		if p > maxP {
			maxP = p
		}
	}
	t := &Trace{
		Photos:  make([]Photo, maxP+1),
		Owners:  make([]Owner, 1),
		Horizon: int64(len(photos) + 1),
	}
	for i := range t.Photos {
		t.Photos[i].Size = 1
	}
	for i, p := range photos {
		t.Requests = append(t.Requests, Request{Time: int64(i), Photo: p})
	}
	return t
}

func TestBuildNextAccess(t *testing.T) {
	tr := tinyTrace(0, 1, 0, 2, 1, 0)
	next := BuildNextAccess(tr)
	want := []int{2, 4, 5, NoNext, NoNext, NoNext}
	for i, w := range want {
		if next[i] != w {
			t.Fatalf("next[%d] = %d, want %d", i, next[i], w)
		}
	}
}

func TestBuildPrevAccess(t *testing.T) {
	tr := tinyTrace(0, 1, 0, 2, 1, 0)
	prev := BuildPrevAccess(tr)
	want := []int{NoNext, NoNext, 0, NoNext, 1, 2}
	for i, w := range want {
		if prev[i] != w {
			t.Fatalf("prev[%d] = %d, want %d", i, prev[i], w)
		}
	}
}

func TestNextPrevInverse(t *testing.T) {
	tr := testTrace(t)
	next := BuildNextAccess(tr)
	prev := BuildPrevAccess(tr)
	for i, n := range next {
		if n != NoNext && prev[n] != i {
			t.Fatalf("prev[next[%d]=%d] = %d, want %d", i, n, prev[n], i)
		}
	}
	// Property: next[i] (if set) refers to the same photo, strictly later.
	for i, n := range next {
		if n == NoNext {
			continue
		}
		if n <= i {
			t.Fatalf("next[%d] = %d not strictly later", i, n)
		}
		if tr.Requests[n].Photo != tr.Requests[i].Photo {
			t.Fatalf("next[%d] crosses photos", i)
		}
	}
}

func TestNextAccessNoIntermediate(t *testing.T) {
	// Between i and next[i] the photo must not appear.
	tr := MustGenerate(DefaultConfig(5, 500))
	next := BuildNextAccess(tr)
	for i, n := range next {
		if n == NoNext {
			continue
		}
		for j := i + 1; j < n; j++ {
			if tr.Requests[j].Photo == tr.Requests[i].Photo {
				t.Fatalf("photo %d reappears at %d before next[%d]=%d", tr.Requests[i].Photo, j, i, n)
			}
		}
	}
}

func TestReaccessDistance(t *testing.T) {
	tr := tinyTrace(0, 1, 0)
	next := BuildNextAccess(tr)
	if d := ReaccessDistance(next, 0); d != 2 {
		t.Fatalf("distance = %d, want 2", d)
	}
	if d := ReaccessDistance(next, 1); d != -1 {
		t.Fatalf("distance for final access = %d, want -1", d)
	}
}

func TestOneTimeCountMatchesSummary(t *testing.T) {
	tr := testTrace(t)
	next := BuildNextAccess(tr)
	prev := BuildPrevAccess(tr)
	oneTime := 0
	for i := range tr.Requests {
		if next[i] == NoNext && prev[i] == NoNext {
			oneTime++
		}
	}
	s := Summarize(tr)
	if oneTime != s.OneTimeObjects {
		t.Fatalf("one-time via next/prev = %d, summary = %d", oneTime, s.OneTimeObjects)
	}
}

func TestSummaryEmptyTrace(t *testing.T) {
	s := Summarize(&Trace{})
	if s.NumPhotos != 0 || s.NumRequests != 0 || s.HitRateCap != 0 {
		t.Fatal("empty trace summary must be zeros")
	}
}

func TestSummaryString(t *testing.T) {
	s := Summarize(tinyTrace(0, 1, 0))
	out := s.String()
	if len(out) == 0 {
		t.Fatal("empty summary string")
	}
}

// Property: BuildNextAccess matches a naive O(n^2) forward scan on
// arbitrary key sequences.
func TestBuildNextAccessMatchesNaive(t *testing.T) {
	check := func(seq []uint32) bool {
		tr := tinyTrace(seq...)
		next := BuildNextAccess(tr)
		for i := range seq {
			naive := NoNext
			for j := i + 1; j < len(seq); j++ {
				if seq[j] == seq[i] {
					naive = j
					break
				}
			}
			if next[i] != naive {
				return false
			}
		}
		return true
	}
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		seq := make([]uint32, len(raw))
		for i, b := range raw {
			seq[i] = uint32(b % 10)
		}
		return check(seq)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestNextAccessMatchesMap compares both index builders with a
// map-keyed reference, on a generated trace and on a hand-built one
// whose photo ids are sparse.
func TestNextAccessMatchesMap(t *testing.T) {
	reference := func(tr *Trace) (next, prev []int) {
		next = make([]int, len(tr.Requests))
		prev = make([]int, len(tr.Requests))
		last := map[uint32]int{}
		for i := len(tr.Requests) - 1; i >= 0; i-- {
			p := tr.Requests[i].Photo
			next[i] = NoNext
			if j, ok := last[p]; ok {
				next[i] = j
			}
			last[p] = i
		}
		clear(last)
		for i := range tr.Requests {
			p := tr.Requests[i].Photo
			prev[i] = NoNext
			if j, ok := last[p]; ok {
				prev[i] = j
			}
			last[p] = i
		}
		return next, prev
	}
	sparse := &Trace{Photos: make([]Photo, 1)}
	for i, p := range []uint32{70000, 3, 70000, 0, 1 << 20, 3, 3, 1 << 20, 9, 0} {
		sparse.Requests = append(sparse.Requests, Request{Time: int64(i), Photo: p})
	}
	for name, tr := range map[string]*Trace{
		"generated": MustGenerate(DefaultConfig(42, 60000)),
		"sparse":    sparse,
		"empty":     {},
	} {
		wantNext, wantPrev := reference(tr)
		if got := BuildNextAccess(tr); !slices.Equal(got, wantNext) {
			t.Errorf("%s: BuildNextAccess differs from the map reference", name)
		}
		if got := BuildPrevAccess(tr); !slices.Equal(got, wantPrev) {
			t.Errorf("%s: BuildPrevAccess differs from the map reference", name)
		}
	}
}
