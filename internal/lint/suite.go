// Package lint assembles the repo's analyzer suite. cmd/otalint and the
// lint tests share this list so the binary, the fixtures, and `make
// lint` cannot drift apart.
package lint

import (
	"otacache/internal/lint/analysis"
	"otacache/internal/lint/atomicfield"
	"otacache/internal/lint/detclock"
	"otacache/internal/lint/errsink"
	"otacache/internal/lint/hotalloc"
	"otacache/internal/lint/lockorder"
	"otacache/internal/lint/lockscope"
	"otacache/internal/lint/snapshotwire"
)

// Suite returns the seven repo-specific analyzers with their default
// configurations:
//
//   - lockscope: no mutex held across blocking calls in the hot paths
//   - detclock: no wall clocks or global RNGs in deterministic packages
//   - snapshotwire: snapshot encoder and decoder agree, layout is pinned
//   - errsink: no dropped errors in accounting-bearing packages
//   - atomicfield: no mixed atomic/plain access to one struct field
//   - lockorder: no cycles or unordered same-class nesting in the
//     mutex-acquisition graph
//   - hotalloc: no new heap allocations in declared hot-path functions
//     versus the checked-in hotalloc.baseline
func Suite() []*analysis.Analyzer {
	return []*analysis.Analyzer{
		lockscope.New(lockscope.Config{Scope: lockscope.DefaultScope}),
		detclock.New(detclock.Config{Scope: detclock.DefaultScope}),
		snapshotwire.New(snapshotwire.Config{}),
		errsink.Analyzer,
		atomicfield.Analyzer,
		lockorder.Analyzer,
		hotalloc.Analyzer,
	}
}
