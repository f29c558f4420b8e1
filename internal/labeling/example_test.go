package labeling_test

import (
	"fmt"

	"otacache/internal/labeling"
	"otacache/internal/trace"
)

// Example walks the §4.3 criteria end to end on a generated trace.
func Example() {
	tr := trace.MustGenerate(trace.DefaultConfig(1, 4000))
	next := trace.BuildNextAccess(tr)
	capacity := tr.TotalBytes() / 10

	h := labeling.EstimateHitRate(tr, capacity, labeling.HitRateSampleRequests)
	crit := labeling.Solve(tr, next, capacity, h, 3)
	labels := labeling.Labels(next, crit)

	oneTime := 0
	for _, y := range labels {
		oneTime += y
	}
	fmt.Println("M positive:", crit.M > 0)
	fmt.Println("labels cover trace:", len(labels) == len(tr.Requests))
	fmt.Println("some but not all one-time:", oneTime > 0 && oneTime < len(labels))

	// §5.2: the LIRS criteria shrinks M by the LIR share Rs.
	lirs := crit.ForPolicy("lirs", 0.9)
	fmt.Println("M_LIRS < M_LRU:", lirs.M < crit.M)
	// Output:
	// M positive: true
	// labels cover trace: true
	// some but not all one-time: true
	// M_LIRS < M_LRU: true
}
