// Package lint assembles the repo's analyzer suite. cmd/otalint and the
// lint tests share this list so the binary, the fixtures, and `make
// lint` cannot drift apart.
package lint

import (
	"otacache/internal/lint/analysis"
	"otacache/internal/lint/detclock"
	"otacache/internal/lint/errsink"
	"otacache/internal/lint/lockorder"
	"otacache/internal/lint/lockscope"
)

// Suite returns the four repo-specific analyzers with their default
// configurations:
//
//   - lockscope: no mutex held across blocking calls in the hot paths
//   - detclock: no wall clocks or global RNGs in deterministic packages
//   - errsink: no dropped errors in accounting-bearing packages
//   - lockorder: no cycles or unordered same-class nesting in the
//     mutex-acquisition graph
//
// Two properties are tests rather than analyzers, because only running
// the code measures them: the serving hot path's zero allocations
// (internal/engine TestHotPathAllocs) and the snapshot wire format
// (internal/server TestSnapshotGolden, against a committed golden file
// per format version).
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockscope.New(lockscope.Config{Scope: lockscope.DefaultScope}),
		detclock.New(detclock.Config{Scope: detclock.DefaultScope}),
		errsink.Analyzer,
		lockorder.Analyzer,
	}
}
