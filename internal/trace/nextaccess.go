package trace

// NoNext marks a request whose photo is never accessed again within the
// trace.
const NoNext = -1

// BuildNextAccess returns, for every request index i, the index of the
// next request to the same photo, or NoNext if there is none. It is the
// "future knowledge" index consumed by the Belady policy, the oracle
// (Ideal) admission filter, and the one-time-access labeler.
//
// It runs in O(n) with one backward pass.
func BuildNextAccess(t *Trace) []int {
	next := make([]int, len(t.Requests))
	last := lastSeen(t)
	for i := len(t.Requests) - 1; i >= 0; i-- {
		p := t.Requests[i].Photo
		next[i] = last[p]
		last[p] = i
	}
	return next
}

// BuildPrevAccess returns, for every request index i, the index of the
// previous request to the same photo, or NoNext if this is the photo's
// first access. The feature extractor uses it to compute recency.
func BuildPrevAccess(t *Trace) []int {
	prev := make([]int, len(t.Requests))
	last := lastSeen(t)
	for i := range t.Requests {
		p := t.Requests[i].Photo
		prev[i] = last[p]
		last[p] = i
	}
	return prev
}

// lastSeen returns a per-photo index table, NoNext everywhere, sized by
// the largest photo id the requests use.
func lastSeen(t *Trace) []int {
	n := 0
	for i := range t.Requests {
		n = max(n, int(t.Requests[i].Photo)+1)
	}
	last := make([]int, n)
	for p := range last {
		last[p] = NoNext
	}
	return last
}

// ReaccessDistance returns, for request i with next-access index next[i],
// the number of intervening requests before the photo is accessed again
// (the paper's reaccess distance, §4.3), or -1 if never.
func ReaccessDistance(next []int, i int) int {
	n := next[i]
	if n == NoNext {
		return -1
	}
	return n - i
}
