package main

import (
	"fmt"
	"math"
	"sort"

	"otacache/internal/engine"
)

// metric is one reported number. Q1/Q3/N describe the samples behind a
// value aggregated over slices or repetitions; compare uses the quartile
// spread to tell "unchanged" from "too noisy to say".
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Q1    float64 `json:"q1,omitempty"`
	Q3    float64 `json:"q3,omitempty"`
	N     int     `json:"n,omitempty"`
}

// quartiles returns the first quartile, median and third quartile of xs
// by the rule of Python's statistics.quantiles(xs, n=4), which is what
// the acceptance procedure applies to repeated runs. xs is not modified.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	switch n {
	case 0:
		return math.NaN(), math.NaN(), math.NaN()
	case 1:
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// midmean is the mean of the middle half of xs: as robust against a
// slice hit by a host hiccup as the median, but continuous — a median of
// integer-nanosecond percentiles reads identically run after run.
func midmean(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	drop := len(s) / 4
	s = s[drop : len(s)-drop]
	var sum float64
	for _, x := range s {
		sum += x
	}
	return sum / float64(len(s))
}

// percentileLadder lists the reportable percentiles, ascending, each
// with the share of samples beyond it as one in tail.
var percentileLadder = []struct {
	p    float64
	tail int
}{{50, 2}, {90, 10}, {99, 100}, {99.9, 1000}, {99.99, 10000}}

// highestPercentile applies the reporting rule: the highest percentile
// on the ladder with at least ten samples beyond it. With fewer than 20
// samples not even the median qualifies and ok is false.
func highestPercentile(n int) (p float64, ok bool) {
	for _, c := range percentileLadder {
		if n >= 10*c.tail {
			p, ok = c.p, true
		}
	}
	return p, ok
}

// percentile returns the p-th percentile of sorted by linear
// interpolation between closest ranks.
func percentile(sorted []int64, p float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(pos)
	if lo+1 >= len(sorted) {
		return float64(sorted[len(sorted)-1])
	}
	frac := pos - float64(lo)
	return float64(sorted[lo])*(1-frac) + float64(sorted[lo+1])*frac
}

// overSlices aggregates one per-slice figure.
func overSlices(w *window, unit string, f func(s *slice) float64) metric {
	xs := make([]float64, len(w.slices))
	for i := range w.slices {
		xs[i] = f(&w.slices[i])
	}
	q1, _, q3 := quartiles(xs)
	return metric{Value: midmean(xs), Unit: unit, Q1: q1, Q3: q3, N: len(xs)}
}

// ssdWriteRatio is the paper's Fig. 9 quantity: device bytes written per
// requested byte, including collector relocations where a flash store
// measures them.
func ssdWriteRatio(m engine.Metrics, flashAttached bool) float64 {
	if !flashAttached {
		return m.ByteWriteRate()
	}
	return div(float64(m.FlashHostBytes+m.FlashGCBytes), float64(m.TotalBytes))
}

// endToEnd turns a timed window into the end-to-end metrics.
func endToEnd(sp spec, w *window, setups []float64, heapBase uint64) map[string]metric {
	var latSamples int
	for i := range w.slices {
		latSamples += len(w.slices[i].latNs)
	}
	p50 := overSlices(w, "us", func(s *slice) float64 { return percentile(s.latNs, 50) / 1e3 })
	p99 := overSlices(w, "us", func(s *slice) float64 { return percentile(s.latNs, 99) / 1e3 })
	p50.N, p99.N = latSamples, latSamples

	quality := w.atQuality.Sub(w.before)
	s1, smed, s3 := quartiles(setups)
	return map[string]metric{
		"lookups_per_s":                overSlices(w, "1/s", func(s *slice) float64 { return float64(s.reqs) / (float64(s.wallNs) / 1e9) }),
		"lookup_p50_us":                p50,
		"lookup_p99_us":                p99,
		"byte_hit_rate":                {Value: quality.ByteHitRate(), Unit: "ratio"},
		"ssd_write_bytes_per_req_byte": {Value: ssdWriteRatio(quality, sp.flash), Unit: "ratio"},
		"engine_heap_mb":               {Value: (float64(w.heapAtQuality) - float64(heapBase)) / (1 << 20), Unit: "MiB"},
		"setup_s":                      {Value: smed, Unit: "s", Q1: s1, Q3: s3, N: len(setups)},
	}
}

// checkWindow applies the correctness checks to one window and returns
// every violation found.
func checkWindow(sp spec, in *instance, w *window) []string {
	var bad []string
	fail := func(format string, args ...any) { bad = append(bad, fmt.Sprintf(format, args...)) }
	d := w.after.Sub(w.before)
	if n := w.failed; n > 0 {
		fail("%d of %d lookups failed", n, w.reqs)
	}
	if d.Requests != w.reqs {
		fail("engine counted %d requests, clients issued %d", d.Requests, w.reqs)
	}
	if d.Hits+d.Misses != d.Requests {
		fail("hits %d + misses %d != requests %d", d.Hits, d.Misses, d.Requests)
	}
	if d.Misses < d.Writes+d.Bypassed {
		fail("misses %d < writes %d + bypassed %d", d.Misses, d.Writes, d.Bypassed)
	}
	if w.hits != d.Hits {
		fail("clients observed %d hits, engine counted %d", w.hits, d.Hits)
	}
	if d.Degraded != 0 {
		fail("%d admission decisions were degraded", d.Degraded)
	}
	for i, sh := range in.eng.Shards() {
		if fs := sh.Flash(); fs != nil {
			if st := fs.Stats(); st.Dropped != 0 || st.ReadErrors != 0 {
				fail("shard %d flash: dropped %d, read errors %d", i, st.Dropped, st.ReadErrors)
			}
		}
	}
	return bad
}
