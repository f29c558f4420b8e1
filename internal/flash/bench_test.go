package flash

import (
	"testing"
	"time"

	"otacache/internal/slab"
)

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

// The serving bench's flash geometry: 216 segments of 4 MiB, each
// holding 51 extent-only records of 80 KiB.
const (
	servingSegments = 216
	servingSegSize  = 4 << 20
	servingObjSize  = 80 << 10
	// servingLRUCap is the objects the cache above the store holds: 80 %
	// of the device's records. At the daemon's 1.15 overprovision this
	// stream settles either side of 40 % survivors (about 30 or 12 of 51,
	// by key space), never near it.
	servingLRUCap = servingSegments * (servingSegSize / servingObjSize) * 100 / 125
	// servingKeySpace sets the hit ratio, and with it the survivors.
	servingKeySpace = servingLRUCap * 7 / 4
)

// servingChurn drives a store at the serving geometry with an LRU cache
// above it that draws keys uniformly: its misses write and its
// evictions invalidate, so extents die in LRU order and a victim keeps
// the keys hit since they were written, about 21 of its 51 records.
type servingChurn struct {
	s    *Store
	lru  slab.Arena[struct{}]
	list slab.List
	rng  uint64
}

func newServingChurn(tb testing.TB) *servingChurn {
	tb.Helper()
	s, err := New(Config{SegmentSize: servingSegSize, Capacity: servingSegments * servingSegSize})
	if err != nil {
		tb.Fatal(err)
	}
	return &servingChurn{s: s, lru: slab.Make[struct{}](servingLRUCap), rng: 0x5eed}
}

// request sends one request through the cache: a hit refreshes its key,
// a miss evicts the back key when the cache is full and writes the new
// one.
func (c *servingChurn) request(tb testing.TB) {
	c.rng = c.rng*6364136223846793005 + 1442695040888963407
	key := (c.rng >> 33) % servingKeySpace
	if i := c.lru.Lookup(key); i != slab.Nil {
		c.list.MoveToFront(c.lru.Links(), i)
		return
	}
	if c.list.N == servingLRUCap {
		c.s.Invalidate(c.lru.EvictBack(&c.list, 0))
	}
	i := c.lru.Add(key, struct{}{})
	c.list.PushFront(c.lru.Links(), i, 0)
	if err := c.s.Write(key, servingObjSize, nil); err != nil {
		tb.Fatal(err)
	}
}

// settle runs requests until the store has erased each segment four
// times: the steady state both serving benchmarks start from.
func (c *servingChurn) settle(tb testing.TB) {
	for c.s.erases < 4*servingSegments {
		c.request(tb)
	}
}

// BenchmarkCollectPass prices one collection pass at the serving
// geometry (servingChurn). (BenchmarkFlashGC writes 16 records per
// block and moves only a few survivors per pass, so it cannot price the
// per-survivor work.)
//
// Each op is one pass. The store never collects on its own: as soon as
// a write empties the free pool, the benchmark runs passes until a
// segment is free again and times each one, so ns/pass is the pass
// alone; ns/op also carries the requests that led up to it. The store's
// whole working set fits in a 2 MiB L2, which a serving pass's does
// not: between two passes the serving path runs lookups through the
// policy and the admission tables, which evict the store's lines. So
// "warm" runs the passes back to back with their requests, and "cold"
// first reads 4 MiB of other memory, so each pass starts with the
// store's lines out of the core's private caches. The cold pass is the
// one that comes close to the serving bench's untraced pass time.
func BenchmarkCollectPass(b *testing.B) {
	evict := evictBuffer()
	b.Run("warm", func(b *testing.B) { benchCollectPass(b, nil) })
	b.Run("cold", func(b *testing.B) { benchCollectPass(b, evict) })
}

// evictBuffer returns 4 MiB of written memory, whose reads push the
// store's lines out of the core's private caches.
func evictBuffer() []byte {
	evict := make([]byte, 4<<20)
	for i := range evict {
		evict[i] = byte(i) // a page never written reads as the shared zero page
	}
	return evict
}

// evictSink keeps the eviction reads live.
var evictSink byte

// evictCaches reads one byte of each cache line of evict.
func evictCaches(evict []byte) {
	for j := 0; j < len(evict); j += 64 {
		evictSink += evict[j]
	}
}

// benchCollectPass runs BenchmarkCollectPass, evicting the caches with
// evict, when it is not nil, before each timed pass.
func benchCollectPass(b *testing.B, evict []byte) {
	c := newServingChurn(b)
	s := c.s
	var passNs, passes, moved int64
	timed := false
	request := func() {
		c.request(b)
		for len(s.free) == 0 {
			if timed && evict != nil {
				evictCaches(evict)
			}
			before := s.relocations
			start := time.Now()
			s.collectPass()
			passNs += int64(time.Since(start))
			passes++
			moved += s.relocations - before
		}
	}
	// Warm up until the device has been collected round a few times.
	for passes < 4*servingSegments {
		request()
	}
	passNs, passes, moved = 0, 0, 0
	timed = true
	b.ResetTimer()
	for passes < int64(b.N) {
		request()
	}
	b.StopTimer()
	b.ReportMetric(float64(passNs)/float64(passes), "ns/pass")
	b.ReportMetric(float64(moved)/float64(passes), "survivors/pass")
}

// BenchmarkReadExtent prices a flash hit, ReadExtent of a live key, on a
// store settled at the serving geometry (servingChurn). Reads go to
// keys drawn uniformly from the cache's residents, in batches of 64
// timed together, so ns/read is the read alone. As with
// BenchmarkCollectPass, "warm" runs the batches back to back, with the
// store's index and images in L2, and "cold" first reads 4 MiB of other
// memory, as a serving hit finds the store after the policy and the
// admission tables ran.
func BenchmarkReadExtent(b *testing.B) {
	evict := evictBuffer()
	b.Run("warm", func(b *testing.B) { benchReadExtent(b, nil) })
	b.Run("cold", func(b *testing.B) { benchReadExtent(b, evict) })
}

// benchReadExtent runs BenchmarkReadExtent, evicting the caches with
// evict, when it is not nil, before each timed batch.
func benchReadExtent(b *testing.B, evict []byte) {
	const batch = 64
	c := newServingChurn(b)
	c.settle(b)
	keys := make([]uint64, 0, c.list.N)
	for i := c.list.Head; i != slab.Nil; i = c.lru.Links()[i].Next {
		keys = append(keys, c.lru.Key(i))
	}
	var readNs, reads int64
	rng := uint64(0x5eed)
	b.ResetTimer()
	for reads < int64(b.N) {
		if evict != nil {
			evictCaches(evict)
		}
		start := time.Now()
		for range batch {
			rng = rng*6364136223846793005 + 1442695040888963407
			if _, _, err := c.s.ReadExtent(keys[(rng>>33)%uint64(len(keys))]); err != nil {
				b.Fatal(err)
			}
		}
		readNs += int64(time.Since(start))
		reads += batch
	}
	b.StopTimer()
	b.ReportMetric(float64(readNs)/float64(reads), "ns/read")
}
