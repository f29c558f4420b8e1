// Command benchgate enforces the observability overhead budget: it
// reads a cmd/benchjson document (bin/BENCH_gate.json from `make
// benchcheck`) and fails when the instrumented serving benchmark is
// more than -max-overhead-pct slower than its uninstrumented
// baseline. Wired into CI, it turns "the measurement plane is nearly
// free" from a code-review claim into a gate: a clock read or
// histogram record creeping onto the unsampled path shows up as ns/op
// delta and fails the build.
//
// Usage:
//
//	make benchcheck
//	go run ./cmd/benchgate -file bin/BENCH_gate.json -max-overhead-pct 5
//
// When the document carries equally many repetitions of both
// benchmarks (`make benchcheck` runs the pair adjacently N times), the
// gate pairs them in order and compares the MEDIAN per-pair overhead —
// a paired comparison, because on shared runners the machine's speed
// drifts between invocations by more than the budgeted effect, and
// each adjacent pair shares its noise window. With unequal counts it
// falls back to comparing per-name minima.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// result mirrors the cmd/benchjson fields the gate reads.
type result struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
}

type report struct {
	Benchmarks []result `json:"benchmarks"`
}

func main() {
	var (
		file     = flag.String("file", "bin/BENCH_gate.json", "benchjson document to gate on")
		baseName = flag.String("base", "BenchmarkLookupAdmitAll", "uninstrumented baseline benchmark")
		instName = flag.String("instrumented", "BenchmarkLookupInstrumented", "instrumented benchmark")
		maxPct   = flag.Float64("max-overhead-pct", 5, "largest acceptable ns/op overhead of instrumented over base, in percent")
	)
	flag.Parse()

	data, err := os.ReadFile(*file)
	if err != nil {
		fail(err)
	}
	var rep report
	if err := json.Unmarshal(data, &rep); err != nil {
		fail(fmt.Errorf("%s: %w", *file, err))
	}

	bases := allNs(rep.Benchmarks, *baseName)
	insts := allNs(rep.Benchmarks, *instName)
	if len(bases) == 0 || len(insts) == 0 {
		missing := []string{}
		if len(bases) == 0 {
			missing = append(missing, *baseName)
		}
		if len(insts) == 0 {
			missing = append(missing, *instName)
		}
		fail(fmt.Errorf("%s has no %s line (run `make benchcheck` first)", *file, strings.Join(missing, " or ")))
	}
	for _, b := range bases {
		if b <= 0 {
			fail(fmt.Errorf("degenerate baseline %.2f ns/op", b))
		}
	}

	var pct float64
	if len(bases) == len(insts) && len(bases) > 1 {
		// Paired: the i-th repetition of each benchmark ran in the same
		// invocation, so their ratio cancels that window's machine
		// speed; the median pair ignores outlier windows entirely.
		pcts := make([]float64, len(bases))
		for i := range bases {
			pcts[i] = 100 * (insts[i] - bases[i]) / bases[i]
		}
		sort.Float64s(pcts)
		pct = median(pcts)
		fmt.Printf("benchgate: %s vs %s over %d pairs: median %+.2f%% (pairs %+.2f%%..%+.2f%%, budget %.2f%%)\n",
			*instName, *baseName, len(pcts), pct, pcts[0], pcts[len(pcts)-1], *maxPct)
	} else {
		base, inst := min64(bases), min64(insts)
		pct = 100 * (inst - base) / base
		fmt.Printf("benchgate: %s %.2f ns/op vs %s %.2f ns/op: %+.2f%% (budget %.2f%%)\n",
			*instName, inst, *baseName, base, pct, *maxPct)
	}
	if pct > *maxPct {
		fail(fmt.Errorf("instrumentation overhead %.2f%% exceeds the %.2f%% budget", pct, *maxPct))
	}
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func min64(s []float64) float64 {
	best := s[0]
	for _, v := range s[1:] {
		if v < best {
			best = v
		}
	}
	return best
}

// allNs returns every ns/op line whose name is name, in document
// order (repeated invocations append in run order, which is what the
// pairing relies on).
func allNs(rs []result, name string) []float64 {
	var out []float64
	for _, r := range rs {
		// go test prints "BenchmarkLookupAdmitAll-8" (GOMAXPROCS
		// suffix); benchjson keeps the bare name, but accept both.
		bare := r.Name
		if i := strings.LastIndex(bare, "-"); i > 0 {
			if allDigits(bare[i+1:]) {
				bare = bare[:i]
			}
		}
		if bare == name {
			out = append(out, r.NsPerOp)
		}
	}
	return out
}

func allDigits(s string) bool {
	if s == "" {
		return false
	}
	for _, c := range s {
		if c < '0' || c > '9' {
			return false
		}
	}
	return true
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
