// Command benchjson converts `go test -bench` text output on stdin into
// a stable JSON document on stdout, so benchmark numbers can be gated
// (cmd/benchgate) and diffed across commits without scraping.
//
// Usage:
//
//	{ go test -run '^$' -bench BenchmarkLookup -benchmem ./internal/engine; \
//	  go test -run '^$' -bench BenchmarkFlash -benchmem ./internal/flash; } | \
//	    go run ./cmd/benchjson > bin/BENCH.json
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"strconv"
	"strings"
)

// Result is one parsed benchmark line. Extra carries the custom
// b.ReportMetric units the fixed fields don't know — the flash
// benchmarks report "waf" and "erases/op" this way — keyed by the unit
// string exactly as the bench line prints it.
type Result struct {
	Name        string             `json:"name"`
	Pkg         string             `json:"pkg,omitempty"`
	Procs       int                `json:"procs,omitempty"`
	Iterations  int64              `json:"iterations"`
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op,omitempty"`
	AllocsPerOp int64              `json:"allocs_per_op,omitempty"`
	MBPerSec    float64            `json:"mb_per_sec,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// Report is the whole document: the run's environment header plus every
// benchmark line, in input order. With several packages streamed in one
// run (the usage above concatenates engine and flash), each package's header
// retags the results that follow it, so Pkg lives on the Result.
type Report struct {
	Goos       string   `json:"goos,omitempty"`
	Goarch     string   `json:"goarch,omitempty"`
	CPU        string   `json:"cpu,omitempty"`
	Benchmarks []Result `json:"benchmarks"`
}

func main() {
	rep := Report{Benchmarks: []Result{}}
	pkg := ""
	sc := bufio.NewScanner(os.Stdin)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		switch {
		case strings.HasPrefix(line, "goos:"):
			rep.Goos = strings.TrimSpace(strings.TrimPrefix(line, "goos:"))
		case strings.HasPrefix(line, "goarch:"):
			rep.Goarch = strings.TrimSpace(strings.TrimPrefix(line, "goarch:"))
		case strings.HasPrefix(line, "pkg:"):
			pkg = strings.TrimSpace(strings.TrimPrefix(line, "pkg:"))
		case strings.HasPrefix(line, "cpu:"):
			rep.CPU = strings.TrimSpace(strings.TrimPrefix(line, "cpu:"))
		case strings.HasPrefix(line, "Benchmark"):
			if r, ok := parseBench(line); ok {
				r.Pkg = pkg
				rep.Benchmarks = append(rep.Benchmarks, r)
			}
		}
	}
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
	if len(rep.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines on stdin")
		os.Exit(1)
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintln(os.Stderr, "benchjson:", err)
		os.Exit(1)
	}
}

// parseBench decodes one result line, e.g.
//
//	BenchmarkLookupClassifier-8  1448332  219.7 ns/op  26 B/op  0 allocs/op
func parseBench(line string) (Result, bool) {
	f := strings.Fields(line)
	if len(f) < 3 {
		return Result{}, false
	}
	var r Result
	r.Name = f[0]
	if i := strings.LastIndexByte(r.Name, '-'); i >= 0 {
		if p, err := strconv.Atoi(r.Name[i+1:]); err == nil {
			r.Procs = p
			r.Name = r.Name[:i]
		}
	}
	iters, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return Result{}, false
	}
	r.Iterations = iters
	// The tail is value/unit pairs.
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			continue
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			r.NsPerOp = v
		case "B/op":
			r.BytesPerOp = int64(v)
		case "allocs/op":
			r.AllocsPerOp = int64(v)
		case "MB/s":
			r.MBPerSec = v
		default:
			// A b.ReportMetric unit the schema doesn't know ("waf",
			// "erases/op", ...): keep it rather than drop it.
			if r.Extra == nil {
				r.Extra = map[string]float64{}
			}
			r.Extra[unit] = v
		}
	}
	return r, r.NsPerOp > 0
}
