// Command otabench is the repo's benchmark: four workloads over the
// assembled serving stack, end-to-end metrics measured with tracing off,
// and a separate traced run that attributes a lookup's time to layers.
// bench/README.md explains every workload and metric; BENCHMARK.json at
// the repo root declares them with their regression bounds.
//
// Usage:
//
//	otabench -seed 1                               # every workload, both runs
//	otabench -workload http-proposal -trace 0      # one workload, end to end
//	otabench -workload engine-proposal -trace 1    # one workload, per layer
//	otabench -seed 1 -json a.json -append bench/history.jsonl
//	otabench compare a.json b.json
//
// The last line of standard output is one JSON object. For a single
// workload with -trace 0 or 1 it is {correct, attempted, failed,
// metrics}; otherwise it is the full document -json writes.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// document is one benchmark run: what -json writes, what compare reads,
// and (less the per-slice detail) one line of the history file.
type document struct {
	Commit     string                     `json:"commit"`
	GOOS       string                     `json:"goos"`
	GOARCH     string                     `json:"goarch"`
	CPU        string                     `json:"cpu"`
	GOMAXPROCS int                        `json:"gomaxprocs"`
	Seed       uint64                     `json:"seed"`
	Seconds    float64                    `json:"seconds"`
	Workloads  map[string]*workloadResult `json:"workloads"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compareMain(os.Args[2:]))
	}
	var (
		workload = flag.String("workload", "all", "workload to run, or all")
		seed     = flag.Uint64("seed", 1, "seed of the load: it salts the key space, so the same seed sends the same requests")
		seconds  = flag.Float64("seconds", 10, "length of each timed window in seconds")
		trace    = flag.String("trace", "both", "0 = end-to-end metrics, tracing off; 1 = per-layer metrics from a traced run; both")
		quick    = flag.Bool("quick", false, "shrink every workload to 3000 photos (harness smoke test, not a measurement)")
		jsonPath = flag.String("json", "", "also write the full result document to this file")
		appendTo = flag.String("append", "", "append one history line {commit, goos, goarch, cpu, gomaxprocs, seed, metrics} to this file")
		outDir   = flag.String("out", "bench/out", "directory for trace-<workload>.jsonl span dumps of traced runs (empty = none)")
		commit   = flag.String("commit", "", "commit id to record (default: the VCS revision stamped into the binary)")
	)
	flag.Parse()
	if *trace != "0" && *trace != "1" && *trace != "both" {
		fatal(fmt.Errorf("-trace must be 0, 1 or both, got %q", *trace))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive, got %g", *seconds))
	}
	specs := workloads
	if *workload != "all" {
		sp, ok := findWorkload(*workload)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workload))
		}
		specs = []spec{sp}
	}

	cfg := runConfig{seed: *seed, seconds: *seconds, clients: runtime.GOMAXPROCS(0), setups: 3, outDir: *outDir}
	doc := &document{
		Commit: *commit, GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0), Seed: *seed, Seconds: *seconds,
		Workloads: map[string]*workloadResult{},
	}
	if doc.Commit == "" {
		doc.Commit = vcsRevision()
	}
	if *appendTo != "" {
		doc.CPU = cpuModel()
	}

	correct := true
	for _, sp := range specs {
		if *quick {
			sp = sp.quick()
		}
		res := &workloadResult{Correct: true}
		if *trace != "1" {
			e2e, err := runEndToEnd(sp, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", sp.name, err))
			}
			res = e2e
		}
		if *trace != "0" {
			traced, err := runTraced(sp, cfg)
			if err != nil {
				fatal(fmt.Errorf("%s (traced): %w", sp.name, err))
			}
			res.PerLayer, res.Breakdown = traced.PerLayer, traced.Breakdown
			res.Attempted += traced.Attempted
			res.Failed += traced.Failed
			res.Violations = append(res.Violations, traced.Violations...)
			res.Correct = res.Correct && traced.Correct
		}
		doc.Workloads[sp.name] = res
		correct = correct && res.Correct
		printTable(os.Stdout, sp, res)
	}

	if *jsonPath != "" {
		if err := writeJSONFile(*jsonPath, doc); err != nil {
			fatal(err)
		}
	}
	if *appendTo != "" {
		if err := appendHistory(*appendTo, doc); err != nil {
			fatal(err)
		}
	}
	if len(specs) == 1 && *trace != "both" {
		printContractLine(doc.Workloads[specs[0].name], *trace == "1")
	} else {
		line, err := json.Marshal(doc)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
	}
	if !correct {
		os.Exit(1)
	}
}

// printContractLine prints the single-workload result line: exactly the
// keys correct, attempted, failed and metrics, each metric as {value,
// unit}.
func printContractLine(res *workloadResult, traced bool) {
	type valueUnit struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	src := res.EndToEnd
	if traced {
		src = res.PerLayer
	}
	out := struct {
		Correct   bool                 `json:"correct"`
		Attempted int64                `json:"attempted"`
		Failed    int64                `json:"failed"`
		Metrics   map[string]valueUnit `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]valueUnit{}}
	for name, m := range src {
		out.Metrics[name] = valueUnit{m.Value, m.Unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

// printTable prints one workload's metrics for people.
func printTable(w *os.File, sp spec, res *workloadResult) {
	fmt.Fprintf(w, "== %s (%d photos)\n", sp.name, sp.photos)
	printMetrics := func(title string, ms map[string]metric) {
		if len(ms) == 0 {
			return
		}
		fmt.Fprintf(w, "  %s\n", title)
		for _, name := range sortedKeys(ms) {
			m := ms[name]
			fmt.Fprintf(w, "    %-32s %14.6g %-6s", name, m.Value, m.Unit)
			if m.N > 0 {
				fmt.Fprintf(w, "  q1 %.6g  q3 %.6g  n %d", m.Q1, m.Q3, m.N)
			}
			fmt.Fprintln(w)
		}
	}
	printMetrics("end to end (tracing off)", res.EndToEnd)
	if res.Percentile > 0 {
		fmt.Fprintf(w, "    highest percentile a slice's latency sample supports: p%g\n", res.Percentile)
	}
	printMetrics("per layer (traced run)", res.PerLayer)
	if len(res.Breakdown) > 0 {
		fmt.Fprintf(w, "  traced self time per lookup, ns\n")
		for _, name := range sortedKeys(res.Breakdown) {
			if v := res.Breakdown[name]; v > 0 && name != "total" {
				fmt.Fprintf(w, "    %-32s %14.1f\n", name, v)
			}
		}
		fmt.Fprintf(w, "    %-32s %14.1f\n", "total", res.Breakdown["total"])
	}
	fmt.Fprintf(w, "  attempted %d  failed %d  correct %v\n", res.Attempted, res.Failed, res.Correct)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "  VIOLATION: %s\n", v)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	return slices.Sorted(maps.Keys(m))
}

func writeJSONFile(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// appendHistory adds one line per run, so the numbers have a trajectory
// across commits rather than one overwritten point.
func appendHistory(path string, doc *document) error {
	metrics := map[string]map[string]float64{}
	for name, res := range doc.Workloads {
		ms := map[string]float64{}
		for k, m := range res.EndToEnd {
			ms[k] = m.Value
		}
		for k, m := range res.PerLayer {
			ms[k] = m.Value
		}
		metrics[name] = ms
	}
	line, err := json.Marshal(struct {
		Commit     string                        `json:"commit"`
		GOOS       string                        `json:"goos"`
		GOARCH     string                        `json:"goarch"`
		CPU        string                        `json:"cpu"`
		GOMAXPROCS int                           `json:"gomaxprocs"`
		Seed       uint64                        `json:"seed"`
		Metrics    map[string]map[string]float64 `json:"metrics"`
	}{doc.Commit, doc.GOOS, doc.GOARCH, doc.CPU, doc.GOMAXPROCS, doc.Seed, metrics})
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("append %s: %w", path, err)
	}
	return f.Close()
}

// vcsRevision returns the commit the binary was built from, marked when
// the tree had uncommitted changes; "unknown" outside a repository.
func vcsRevision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "+dirty"
	}
	return rev
}

// cpuModel names the host CPU for the history line.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if name, ok := strings.CutPrefix(line, "model name"); ok {
			return strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(name), ":"))
		}
	}
	return "unknown"
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "otabench:", err)
	os.Exit(1)
}
