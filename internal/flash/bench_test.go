package flash

import "testing"

// benchStore sizes a store so the collector runs hot: the live working
// set fills ~70% of the device, forcing steady relocation traffic.
func benchStore(b *testing.B) *Store {
	b.Helper()
	s, err := New(Config{SegmentSize: 64 << 10, Capacity: 4 << 20})
	if err != nil {
		b.Fatal(err)
	}
	return s
}

const (
	benchObjSize = 4 << 10
	benchKeys    = 700 // 700 x 4KiB live in a 4MiB device ≈ 68% utilization
)

// BenchmarkFlashGC measures the write path with the collector engaged.
// A store is not safe for concurrent use, so one writer drives it. It
// reports the measured WAF alongside the throughput, so the benchmark
// line carries device-level amplification.
func BenchmarkFlashGC(b *testing.B) {
	s := benchStore(b)
	b.SetBytes(benchObjSize)
	b.ResetTimer()
	// An LCG over the key space: overwrites scatter across segments so
	// victims carry survivors.
	rng := uint64(0x9E3779B97F4A7C15)
	for i := 0; i < b.N; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		s.Write((rng>>33)%benchKeys, benchObjSize, nil)
	}
	b.StopTimer()
	st := s.Stats()
	b.ReportMetric(st.WAF(), "waf")
	if b.N > 0 {
		b.ReportMetric(float64(st.Erases)/float64(b.N), "erases/op")
	}
}

// BenchmarkFlashWriteNoGC is the same write path with the device sized
// so collection never runs — the floor the GC benchmark is compared
// against.
func BenchmarkFlashWriteNoGC(b *testing.B) {
	s, err := New(Config{SegmentSize: 64 << 10, Capacity: 64 << 20})
	if err != nil {
		b.Fatal(err)
	}
	// 64MiB of 4KiB objects: wipe just before the device fills so the
	// collector never engages (counters are cumulative, WAF stays 1).
	const fill = (64 << 20) / benchObjSize * 9 / 10
	b.SetBytes(benchObjSize)
	b.ResetTimer()
	rng := uint64(1)
	for i := 0; i < b.N; i++ {
		if i%fill == fill-1 {
			s.Reset()
		}
		rng = rng*6364136223846793005 + 1442695040888963407
		// Unique keys: nothing ever dies, nothing ever collects.
		s.Write(rng, benchObjSize, nil)
	}
	b.StopTimer()
	b.ReportMetric(s.Stats().WAF(), "waf")
}
