package engine

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"otacache/internal/cache"
	"otacache/internal/stats"
)

// newTestSharded builds an n-shard engine over admit-all LRUs, each
// shard with its own perShard-byte thread-safe policy (concurrent use
// requires every shard engine to be concurrency-safe, as in the
// daemon's composition).
func newTestSharded(t *testing.T, n int, perShard int64) *ShardedEngine {
	t.Helper()
	shards := make([]*Engine, n)
	for i := range shards {
		policy, err := cache.NewSharded(perShard, 1, func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(policy, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = eng
	}
	se, err := NewShardedEngine(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

func TestNewShardedEngineValidation(t *testing.T) {
	if _, err := NewShardedEngine(nil, 1); err == nil {
		t.Fatal("empty shard list must error")
	}
	eng, err := New(cache.NewLRU(1024), nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewShardedEngine([]*Engine{eng, nil}, 1); err == nil {
		t.Fatal("nil shard must error")
	}
}

// TestShardedEngineRouting pins the routing contract: ShardFor is
// deterministic, Lookup lands on exactly the shard ShardFor names, and
// a realistic key space spreads over every shard.
func TestShardedEngineRouting(t *testing.T) {
	se := newTestSharded(t, 4, 1<<20)
	used := make([]int, 4)
	for key := uint64(0); key < 4096; key++ {
		dest := se.ShardFor(key)
		if dest < 0 || dest >= 4 {
			t.Fatalf("ShardFor(%d) = %d, out of range", key, dest)
		}
		if again := se.ShardFor(key); again != dest {
			t.Fatalf("ShardFor(%d) unstable: %d then %d", key, dest, again)
		}
		se.Lookup(key, 64, se.NextTick(), nil)
		for i, sh := range se.Shards() {
			if sh.Policy().Contains(key) != (i == dest) {
				t.Fatalf("key %d routed to shard %d, found on shard %d", key, dest, i)
			}
		}
		used[dest]++
	}
	for i, n := range used {
		if n == 0 {
			t.Fatalf("shard %d received no keys out of 4096", i)
		}
	}
}

// TestShardForBalanced pins the multiply-shift route's balance on the
// key shapes the daemon sees: sequential keys, and keys multiplied by an
// odd salt (otabench's stream). Over 1 M keys no shard may own more
// than its fair share plus four standard deviations of a uniform
// hash's count: 0.40 % to 0.69 % above the mean at 2–4 shards, 1.55 %
// at 16. A ring's uneven arcs miss it by an order of magnitude.
func TestShardForBalanced(t *testing.T) {
	const keys = 1_000_000
	salt := stats.NewRNG(1).Uint64() | 1
	shapes := []struct {
		name string
		key  func(i uint64) uint64
	}{
		{"sequential", func(i uint64) uint64 { return i }},
		{"salted", func(i uint64) uint64 { return i * salt }},
	}
	for _, n := range []int{1, 2, 3, 4, 16} {
		se := newTestSharded(t, n, 1<<10)
		for _, shape := range shapes {
			counts := make([]int, n)
			for i := uint64(0); i < keys; i++ {
				counts[se.ShardFor(shape.key(i))]++
			}
			mean := float64(keys) / float64(n)
			bound := mean + 4*math.Sqrt(mean*(1-1/float64(n)))
			if most := slices.Max(counts); float64(most) > bound {
				t.Errorf("%d shards, %s keys: a shard owns %d keys, mean %.0f: %v", n, shape.name, most, mean, counts)
			}
		}
	}
}

// getCounting is a policy stripe that counts the Gets routed to it.
type getCounting struct {
	cache.Policy
	gets int
}

func (p *getCounting) Get(key uint64, tick int) bool {
	p.gets++
	return p.Policy.Get(key, tick)
}

// TestShardForIndependentOfStripes pins that the engine route and
// cache.Sharded's stripe hash stay independent: with 4 engine shards of
// 2 stripes each, every (shard, stripe) cell gets within 2 % of an
// eighth of 1 M salted keys. Correlated hashes would leave some stripes
// of every shard idle.
func TestShardForIndependentOfStripes(t *testing.T) {
	const keys = 1_000_000
	salt := stats.NewRNG(1).Uint64() | 1
	var cells []*getCounting
	shards := make([]*Engine, 4)
	for i := range shards {
		pol, err := cache.NewSharded(1<<20, 2, func(c int64) cache.Policy {
			p := &getCounting{Policy: cache.NewLRU(c)}
			cells = append(cells, p)
			return p
		})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = mustEngine(t, pol)
	}
	se, err := NewShardedEngine(shards, 42)
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < keys; i++ {
		se.Get(i*salt, 1, 0)
	}
	mean := float64(keys) / float64(len(cells))
	for i, c := range cells {
		if dev := float64(c.gets)/mean - 1; dev > 0.02 || dev < -0.02 {
			t.Errorf("shard %d stripe %d got %d keys, mean %.0f", i/2, i%2, c.gets, mean)
		}
	}
}

// TestShardForSeeded pins that the seed salts the route: identical
// seeds route identically, and two seeds send a large share of keys to
// different shards.
func TestShardForSeeded(t *testing.T) {
	build := func(seed uint64) *ShardedEngine {
		shards := make([]*Engine, 4)
		for i := range shards {
			shards[i] = mustEngine(t, cache.NewLRU(1<<10))
		}
		se, err := NewShardedEngine(shards, seed)
		if err != nil {
			t.Fatal(err)
		}
		return se
	}
	a, again, b := build(1), build(1), build(2)
	moved := 0
	for key := uint64(0); key < 10000; key++ {
		if a.ShardFor(key) != again.ShardFor(key) {
			t.Fatalf("key %d routes differently under one seed", key)
		}
		if a.ShardFor(key) != b.ShardFor(key) {
			moved++
		}
	}
	// Unrelated 4-way routes disagree on three keys in four.
	if moved < 7000 {
		t.Fatalf("seeds 1 and 2 route %d of 10000 keys differently, want about 7500", moved)
	}
}

// TestShardedEngineTickLine pins the layout: the tick every request
// writes sits alone on its cache line, away from the shards and salt
// every request reads.
func TestShardedEngineTickLine(t *testing.T) {
	var s ShardedEngine
	tick := unsafe.Offsetof(s.tick)
	if tick%cacheLine != 0 || unsafe.Sizeof(s) != tick+cacheLine {
		t.Fatalf("tick at offset %d of a %d-byte ShardedEngine, want it to open the last %d-byte line",
			tick, unsafe.Sizeof(s), cacheLine)
	}
	if end := unsafe.Offsetof(s.salt) + unsafe.Sizeof(s.salt); end > tick {
		t.Fatalf("salt ends at byte %d, on the tick's line at %d", end, tick)
	}
}

// TestShardedEngineGlobalTick pins the one-counter contract: ticks are
// unique across shards and ResumeTick fast-forwards the shared stream.
func TestShardedEngineGlobalTick(t *testing.T) {
	se := newTestSharded(t, 3, 1<<20)
	for i := 0; i < 10; i++ {
		if got := se.NextTick(); got != i {
			t.Fatalf("tick %d, want %d", got, i)
		}
	}
	if se.Tick() != 10 {
		t.Fatalf("Tick() = %d, want 10", se.Tick())
	}
	se.ResumeTick(1000)
	if got := se.NextTick(); got != 1000 {
		t.Fatalf("resumed tick %d, want 1000", got)
	}
	// Per-shard engines must not have been handing out ticks of their
	// own: the shard counters stay untouched by routed traffic.
	se.Lookup(42, 64, se.NextTick(), nil)
	for i, sh := range se.Shards() {
		if sh.Tick() != 0 {
			t.Fatalf("shard %d grew a private tick counter (%d)", i, sh.Tick())
		}
	}
}

// TestShardedEngineOneShardMatchesEngine is the golden-equivalence
// anchor: a one-shard ShardedEngine must reproduce a bare Engine's
// outcomes and counters exactly, request for request.
func TestShardedEngineOneShardMatchesEngine(t *testing.T) {
	bare, err := New(cache.NewLRU(1<<12), oddBypass{})
	if err != nil {
		t.Fatal(err)
	}
	inner, err := New(cache.NewLRU(1<<12), oddBypass{})
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine([]*Engine{inner}, 99)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5000; i++ {
		key := uint64(i*i%257 + i%17)
		size := int64(32 + key%128)
		a := bare.Lookup(key, size, bare.NextTick(), nil)
		b := se.Lookup(key, size, se.NextTick(), nil)
		if a != b {
			t.Fatalf("request %d diverged: bare %+v, sharded %+v", i, a, b)
		}
	}
	if am, bm := bare.Snapshot(), se.Snapshot(); am != bm {
		t.Fatalf("counters diverged:\n  bare: %+v\nsharded: %+v", am, bm)
	}
	if se.ShardFor(12345) != 0 {
		t.Fatal("one-shard engine must own every key")
	}
}

// TestShardForOneShardFastPath is the regression guard for the route
// ShardFor takes with one shard: the fast path skips the hash and must
// return shard 0 for every key — as a bare Engine does — because
// snapshots written by an N-shard fleet rehome every record through the
// target's ShardFor on restore, and a stray nonzero route would panic
// the resharding.
func TestShardForOneShardFastPath(t *testing.T) {
	inner, err := New(cache.NewLRU(1<<10), nil)
	if err != nil {
		t.Fatal(err)
	}
	se, err := NewShardedEngine([]*Engine{inner}, 7)
	if err != nil {
		t.Fatal(err)
	}
	bare := inner
	rng := uint64(1)
	for i := 0; i < 50000; i++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := rng
		if se.ShardFor(key) != 0 {
			t.Fatalf("one-shard ShardFor(%d) != 0", key)
		}
		if se.ShardFor(key) != bare.ShardFor(key) {
			t.Fatalf("one-shard ShardFor(%d) diverged from bare Engine", key)
		}
	}
}

// TestShardedEngineSnapshotSumsEveryField loads distinct values into
// every shard's atomic counters and checks, by reflection over the
// Metrics fields, that the sharded Snapshot is the exact field-wise sum
// of the shard snapshots — so a counter added to Metrics but skipped by
// Add can never ship.
func TestShardedEngineSnapshotSumsEveryField(t *testing.T) {
	se := newTestSharded(t, 3, 1<<20)
	for si, sh := range se.Shards() {
		salt := int64(si+1) * 1000
		for i := range sh.c {
			sh.c[i].Store(salt + int64(i+1))
		}
		// The Flash* fields mirror an attached store's wear and fault
		// counters, so they cannot be Store()d directly: give each shard
		// a small store and churn it — with injected media faults —
		// until all six mirrored counters are nonzero (distinct per-shard
		// round and fault counts).
		sh.SetFlash(faultChurnedStore(t, uint64(si+1), 1500+100*si, 3+si, 2+si, 4+si))
	}
	var want Metrics
	wv := reflect.ValueOf(&want).Elem()
	for _, sh := range se.Shards() {
		sv := reflect.ValueOf(sh.Snapshot())
		for i := 0; i < sv.NumField(); i++ {
			wv.Field(i).SetInt(wv.Field(i).Int() + sv.Field(i).Int())
		}
	}
	got := se.Snapshot()
	if got != want {
		t.Fatalf("Snapshot is not the field-wise shard sum:\n got: %+v\nwant: %+v", got, want)
	}
	gv := reflect.ValueOf(got)
	for i := 0; i < gv.NumField(); i++ {
		if gv.Field(i).Int() == 0 {
			t.Fatalf("field %s summed to zero; a counter is not aggregated",
				gv.Type().Field(i).Name)
		}
	}
}

// TestShardedEngineConcurrentStress hammers a 4-shard engine from many
// goroutines; under -race this is the ShardedEngine thread-safety
// proof, and the exact request count catches lost routing.
func TestShardedEngineConcurrentStress(t *testing.T) {
	se := newTestSharded(t, 4, 1<<16)
	const goroutines, opsPer = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < opsPer; i++ {
				key := uint64((g*opsPer + i) % 1024)
				se.Lookup(key, int64(1+key%64), se.NextTick(), nil)
				if i%512 == 0 {
					_ = se.Snapshot()
				}
			}
		}(g)
	}
	wg.Wait()
	m := se.Snapshot()
	if total := int64(goroutines * opsPer); m.Requests != total {
		t.Fatalf("requests = %d, want %d", m.Requests, total)
	}
	if m.Hits+m.Misses != m.Requests {
		t.Fatalf("hits %d + misses %d != requests %d", m.Hits, m.Misses, m.Requests)
	}
	if se.Tick() != int64(goroutines*opsPer) {
		t.Fatalf("global tick = %d, want %d", se.Tick(), goroutines*opsPer)
	}
}
