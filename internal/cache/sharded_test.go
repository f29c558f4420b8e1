package cache

import (
	"slices"
	"sync"
	"testing"
)

func newShardedLRU(t testing.TB, capacity int64, n int) *Sharded {
	s, err := NewSharded(capacity, n, func(c int64) Policy { return NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestShardedBasics(t *testing.T) {
	s := newShardedLRU(t, 1024, 4)
	if s.NumShards() != 4 {
		t.Fatalf("shards = %d", s.NumShards())
	}
	if s.Cap() != 1024 {
		t.Fatalf("cap = %d", s.Cap())
	}
	s.Admit(1, 10, 0)
	if !s.Get(1, 1) || !s.Contains(1) {
		t.Fatal("admitted object missing")
	}
	if s.Len() != 1 || s.Used() != 10 {
		t.Fatalf("len=%d used=%d", s.Len(), s.Used())
	}
	if s.Name() != "sharded-4-lru" {
		t.Fatalf("name = %s", s.Name())
	}
}

func TestShardedRoundsUpToPowerOfTwo(t *testing.T) {
	s := newShardedLRU(t, 1000, 5)
	if s.NumShards() != 8 {
		t.Fatalf("shards = %d, want 8", s.NumShards())
	}
	s1 := newShardedLRU(t, 1000, 0)
	if s1.NumShards() != 1 {
		t.Fatalf("shards = %d, want 1", s1.NumShards())
	}
}

func TestShardedErrors(t *testing.T) {
	if _, err := NewSharded(0, 4, func(c int64) Policy { return NewLRU(c) }); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := NewSharded(100, 4, nil); err == nil {
		t.Fatal("nil factory must error")
	}
	if _, err := NewSharded(100, 4, func(int64) Policy { return nil }); err == nil {
		t.Fatal("nil shard must error")
	}
}

func TestShardedRoutingIsStable(t *testing.T) {
	s := newShardedLRU(t, 1<<20, 8)
	// The same key must always land on the same shard: admitting then
	// getting through the wrapper must never miss due to routing.
	for k := uint64(0); k < 2000; k++ {
		s.Admit(k, 1, 0)
	}
	for k := uint64(0); k < 2000; k++ {
		if !s.Contains(k) {
			t.Fatalf("key %d lost by routing", k)
		}
	}
}

func TestShardedDistribution(t *testing.T) {
	s := newShardedLRU(t, 8<<20, 8)
	// Sequential keys (worst case for naive modulo) must spread evenly.
	for k := uint64(0); k < 8000; k++ {
		s.Admit(k, 1, 0)
	}
	for i := range s.shards {
		n := s.shards[i].p.Len()
		if n < 700 || n > 1300 {
			t.Fatalf("shard %d holds %d of 8000 (poor distribution)", i, n)
		}
	}
}

func TestShardedConcurrentAccess(t *testing.T) {
	s := newShardedLRU(t, 1<<20, 8)
	const goroutines = 8
	const opsPer = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := uint64((g*opsPer + i) % 5000)
				if !s.Get(k, i) {
					s.Admit(k, int64(1+k%64), i)
				}
				if i%1024 == 0 {
					_ = s.Used()
					_ = s.Len()
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Used() > s.Cap() {
		t.Fatalf("capacity violated under concurrency: %d > %d", s.Used(), s.Cap())
	}
	if s.Len() == 0 {
		t.Fatal("empty after concurrent workload")
	}
}

// TestShardedConcurrentMixedOps hammers every Policy method — notably
// Name, whose delegated call used to read shard state without the
// shard lock — from many goroutines. Run under -race this is the
// regression test for that unlocked access.
func TestShardedConcurrentMixedOps(t *testing.T) {
	s := newShardedLRU(t, 1<<20, 8)
	const goroutines = 8
	const opsPer = 20000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				k := uint64((g*opsPer + i) % 4000)
				switch i % 7 {
				case 0, 1, 2:
					if !s.Get(k, i) {
						s.Admit(k, int64(1+k%128), i)
					}
				case 3:
					_ = s.Contains(k)
				case 4:
					_ = s.Len()
				case 5:
					_ = s.Used()
				default:
					if name := s.Name(); name != "sharded-8-lru" {
						t.Errorf("name = %q", name)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	if s.Used() > s.Cap() {
		t.Fatalf("capacity violated: %d > %d", s.Used(), s.Cap())
	}
}

func TestShardedCapacityInvariant(t *testing.T) {
	s := newShardedLRU(t, 4096, 4)
	for k := uint64(0); k < 10000; k++ {
		s.Admit(k, int64(1+k%200), 0)
		if s.Used() > s.Cap() {
			t.Fatalf("used %d > cap %d", s.Used(), s.Cap())
		}
	}
}

// TestUnlockedDecidesAsSharded drives a Sharded and the unlocked view of
// a second, identical one with the same stream: every Get, every
// eviction callback, Remove, Len, Used and the resident walk must agree,
// because the view is the same stripes behind the same routing.
func TestUnlockedDecidesAsSharded(t *testing.T) {
	const capacity = 8 << 10
	keys, sizes, _ := digestStream(capacity, 20000)
	locked := newShardedLRU(t, capacity, 4)
	view := newShardedLRU(t, capacity, 4).Unlocked()
	var lockedEvicted, viewEvicted []uint64
	locked.SetEvictNotify(func(key uint64) { lockedEvicted = append(lockedEvicted, key) })
	view.SetEvictNotify(func(key uint64) { viewEvicted = append(viewEvicted, key) })
	for i, key := range keys {
		hit := locked.Get(key, i)
		if got := view.Get(key, i); got != hit {
			t.Fatalf("request %d: view Get = %v, Sharded %v", i, got, hit)
		}
		if !hit {
			locked.Admit(key, sizes[i], i)
			view.Admit(key, sizes[i], i)
		}
		if i%97 == 0 && locked.Remove(key) != view.Remove(key) {
			t.Fatalf("request %d: Remove disagrees", i)
		}
	}
	if len(lockedEvicted) == 0 || !slices.Equal(lockedEvicted, viewEvicted) {
		t.Fatalf("evictions: Sharded %d, view %d (or they differ)", len(lockedEvicted), len(viewEvicted))
	}
	if locked.Len() != view.Len() || locked.Used() != view.Used() || locked.Cap() != view.Cap() {
		t.Fatalf("view holds %d objects, %d of %d bytes; Sharded %d, %d of %d",
			view.Len(), view.Used(), view.Cap(), locked.Len(), locked.Used(), locked.Cap())
	}
	var want, got []uint64
	locked.Range(func(key uint64, _ int64) bool { want = append(want, key); return true })
	var mu sync.Mutex
	view.RangeUnder(&mu, func(key uint64, _ int64) bool { got = append(got, key); return true })
	if !slices.Equal(got, want) {
		t.Fatalf("view walks %d residents, Sharded %d (or in another order)", len(got), len(want))
	}
}
