package engine

import (
	"fmt"
	"math/rand"
	"sync/atomic"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/faults"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
)

// benchEngine builds the server-shaped engine: a 16-way sharded LRU
// front over the given admission filter.
func benchEngine(b *testing.B, filter core.Filter) *Engine {
	b.Helper()
	policy, err := cache.NewSharded(512<<20, 16, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		b.Fatal(err)
	}
	eng, err := New(policy, filter)
	if err != nil {
		b.Fatal(err)
	}
	return eng
}

// benchAdmission trains a small real CART on a synthetic two-class set
// so the benchmarked Decide path walks actual splits, backed by a
// history table sized to miss often enough to exercise insertion.
func benchAdmission(b *testing.B) *core.ClassifierAdmission {
	b.Helper()
	d := &mlcore.Dataset{}
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		x := []float64{r.Float64(), r.Float64(), r.Float64(), r.Float64() * 5, r.Float64() * 3}
		label := mlcore.Negative
		if x[0]+0.2*x[1] > 0.6 {
			label = mlcore.Positive
		}
		d.X = append(d.X, x)
		d.Y = append(d.Y, label)
	}
	tree, err := core.TrainTree(d, 2)
	if err != nil {
		b.Fatal(err)
	}
	adm, err := core.NewClassifierAdmission(tree, core.NewHistoryTable(4096), labeling.Criteria{M: 5000})
	if err != nil {
		b.Fatal(err)
	}
	return adm
}

// benchSharded splits the benchEngine composition into n independent
// hash-routed engine shards: total capacity and inner cache shards
// are divided so every variant manages the same aggregate cache.
func benchSharded(b *testing.B, n int, classified bool) *ShardedEngine {
	b.Helper()
	inner := 16 / n
	if inner < 1 {
		inner = 1
	}
	shards := make([]*Engine, n)
	for i := range shards {
		policy, err := cache.NewSharded((512<<20)/int64(n), inner,
			func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			b.Fatal(err)
		}
		var filter core.Filter
		if classified {
			filter = benchAdmission(b)
		}
		shards[i], err = New(policy, filter)
		if err != nil {
			b.Fatal(err)
		}
	}
	se, err := NewShardedEngine(shards, 7)
	if err != nil {
		b.Fatal(err)
	}
	return se
}

// benchLookup drives Lookup from b.RunParallel over a Zipf-ish key
// space — the concurrency profile of the network daemon's hot path.
func benchLookup(b *testing.B, eng Server, withFeat bool) {
	b.Helper()
	var seed atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		r := rand.New(rand.NewSource(seed.Add(1)))
		feat := make([]float64, 5)
		for pb.Next() {
			// Skewed popularity: a small hot set plus a long tail, so
			// both the hit path and the admission path stay busy.
			var key uint64
			if r.Intn(4) > 0 {
				key = uint64(r.Intn(4096))
			} else {
				key = uint64(4096 + r.Intn(1<<20))
			}
			var f []float64
			if withFeat {
				feat[0] = float64(key%97) / 97
				feat[1] = float64(key%13) / 13
				feat[2] = 0.5
				feat[3] = float64(key % 5)
				feat[4] = float64(key % 3)
				f = feat
			}
			eng.Lookup(key, 100<<10, eng.NextTick(), f)
		}
	})
}

// BenchmarkLookupAdmitAll measures the sharded-LRU hot path with no
// admission filtering — the traditional-cache baseline.
func BenchmarkLookupAdmitAll(b *testing.B) {
	benchLookup(b, benchEngine(b, nil), false)
}

// BenchmarkLookupClassifier measures the full proposal path: sharded
// LRU plus cost-sensitive CART prediction and history-table
// rectification on every miss.
func BenchmarkLookupClassifier(b *testing.B) {
	benchLookup(b, benchEngine(b, benchAdmission(b)), true)
}

// BenchmarkLookupInstrumented is BenchmarkLookupAdmitAll with the
// measurement plane attached at the default sample period: the pair's
// ns/op delta is the live cost of observability, and cmd/benchgate
// fails CI when it exceeds 5%.
func BenchmarkLookupInstrumented(b *testing.B) {
	eng := benchEngine(b, nil)
	eng.SetInstruments(NewInstruments(faults.WallClock{}, DefaultSampleEvery))
	benchLookup(b, eng, false)
}

// BenchmarkLookupFlashAttached is BenchmarkLookupAdmitAll with a flash
// store under the policy at cmd/otacached's documented geometry (4 MiB
// segments, overprovision 1.15): every admitted miss is a device write
// and the collector runs in steady state. The device is filled before
// the timer starts, so no iteration is measured on an empty log;
// gc-passes/op (a pass erases one victim; the in-memory device never
// fails an erase) is reported beside ns/op.
func BenchmarkLookupFlashAttached(b *testing.B) {
	eng := benchEngine(b, nil)
	if err := AttachFlash(eng, 4<<20, 1.15); err != nil {
		b.Fatal(err)
	}
	fs := eng.Flash()
	// Keys the timed loop never sends.
	for key := uint64(1 << 21); fs.Stats().Erases == 0; key++ {
		eng.Lookup(key, 100<<10, eng.NextTick(), nil)
	}
	before := fs.Stats().Erases
	benchLookup(b, eng, false)
	b.StopTimer()
	b.ReportMetric(float64(fs.Stats().Erases-before)/float64(b.N), "gc-passes/op")
}

// BenchmarkLookupShardedAdmitAll measures hash routing over N
// independent admit-all engines; shards=1 prices the routing layer
// itself against BenchmarkLookupAdmitAll.
func BenchmarkLookupShardedAdmitAll(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchLookup(b, benchSharded(b, n, false), false)
		})
	}
}

// BenchmarkLookupShardedClassifier measures the contended case sharding
// exists for: every miss walks a CART and takes its shard's history
// table lock, so independent per-shard admission state should scale
// where the single shared table serializes.
func BenchmarkLookupShardedClassifier(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			benchLookup(b, benchSharded(b, n, true), true)
		})
	}
}
