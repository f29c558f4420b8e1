package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json the tool reads.
type benchmarkFile struct {
	Workloads []declaredWorkload `json:"workloads"`
	EndToEnd  []declaredMetric   `json:"end_to_end"`
	PerLayer  []declaredMetric   `json:"per_layer"`
}

type declaredWorkload struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type declaredMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func readJSONFile(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict is the outcome of one (workload, metric) row.
type verdict string

const (
	ok         verdict = "ok"
	regressed  verdict = "regressed"
	unresolved verdict = "unresolved"
)

// judge compares b against base a for a metric with the given bound.
// A value aggregated over n slices (or setup repetitions) is only known
// to within about their quartile spread over √n; where that uncertainty
// on either side exceeds the bound, the pair cannot resolve a change of
// that size and the row is unresolved — never "unchanged". The raw
// slice spread would not do: slices cover different hours of the trace's
// day, so their throughput differs by design.
func judge(a, b metric, d declaredMetric) verdict {
	uncertainty := func(m metric) float64 {
		if m.N == 0 || m.Value == 0 {
			return 0
		}
		return (m.Q3 - m.Q1) / m.Value / math.Sqrt(float64(m.N))
	}
	if uncertainty(a) > d.Bound || uncertainty(b) > d.Bound {
		return unresolved
	}
	worse := b.Value > a.Value*(1+d.Bound)
	if d.Better == "higher" {
		worse = b.Value < a.Value*(1-d.Bound)
	}
	if worse {
		return regressed
	}
	return ok
}

// compareDocs prints one row per (workload, end-to-end metric) plus a
// failed-operations row per workload, and reports whether any regressed.
func compareDocs(w io.Writer, bf *benchmarkFile, a, b *document) (anyRegressed bool) {
	fmt.Fprintf(w, "%-26s %-30s %14s %14s  %-22s %s\n", "workload", "metric", "a", "b", "b/a", "verdict")
	for _, wl := range bf.Workloads {
		ra, rb := a.Workloads[wl.Name], b.Workloads[wl.Name]
		if ra == nil || rb == nil || ra.EndToEnd == nil || rb.EndToEnd == nil {
			fmt.Fprintf(w, "%-26s missing from one side\n", wl.Name)
			continue
		}
		for _, d := range bf.EndToEnd {
			ma, mb := ra.EndToEnd[d.Name], rb.EndToEnd[d.Name]
			v := judge(ma, mb, d)
			anyRegressed = anyRegressed || v == regressed
			fmt.Fprintf(w, "%-26s %-30s %14.6g %14.6g  %-22s %s\n", wl.Name, d.Name, ma.Value, mb.Value,
				fmt.Sprintf("%.4f (base %.6g)", div(mb.Value, ma.Value), ma.Value), v)
		}
		// failed_ops_frac has an absolute bound of 0: any more failures is
		// a regression.
		fa, fb := div(float64(ra.Failed), float64(ra.Attempted)), div(float64(rb.Failed), float64(rb.Attempted))
		v := ok
		if fb > fa || !rb.Correct {
			v, anyRegressed = regressed, true
		}
		fmt.Fprintf(w, "%-26s %-30s %14.6g %14.6g  %-22s %s\n", wl.Name, "failed_ops_frac", fa, fb, "absolute", v)
	}
	return anyRegressed
}

func compareMain(args []string) int {
	fs := flag.NewFlagSet("compare", flag.ExitOnError)
	benchPath := fs.String("bench", "BENCHMARK.json", "benchmark declaration holding the bounds")
	fs.Parse(args)
	if fs.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: otabench compare [-bench BENCHMARK.json] a.json b.json")
		return 2
	}
	var bf benchmarkFile
	var a, b document
	for _, f := range []struct {
		path string
		into any
	}{{*benchPath, &bf}, {fs.Arg(0), &a}, {fs.Arg(1), &b}} {
		if err := readJSONFile(f.path, f.into); err != nil {
			fmt.Fprintln(os.Stderr, "otabench compare:", err)
			return 2
		}
	}
	if compareDocs(os.Stdout, &bf, &a, &b) {
		return 1
	}
	return 0
}
