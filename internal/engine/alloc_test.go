package engine

import (
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/faults"
	"otacache/internal/flash"
	"otacache/internal/labeling"
	"otacache/internal/mlcore"
)

// featureStub stands in for a trained tree: one-time when the first
// feature is at least 0.5.
type featureStub struct{}

func (featureStub) Name() string { return "feature-stub" }
func (featureStub) Predict(x []float64) int {
	if x[0] >= 0.5 {
		return mlcore.Positive
	}
	return mlcore.Negative
}
func (featureStub) Score(x []float64) float64 { return x[0] }

// TestHotPathAllocs pins the serving hot path at zero allocations per
// operation, measured at run time with testing.AllocsPerRun. Each
// subtest drives one request shape through the exported entry point a
// caller actually uses, so everything that shape reaches is covered,
// append growth and map internals included:
//
//   - Engine.Lookup, Get and Offer (hit, instrumented hit, evicting miss);
//   - flash.Store.ReadExtent down to readRecord (flash-attached hit);
//   - flash.Store.Write and Invalidate, the collector's passes and the
//     device's erases (evicting miss with a store attached);
//   - the obs record path: Sampler.Hit, Histogram.Record, recorderShard,
//     bucketIndex (instrumented hit, observed flash hit);
//   - ShardedEngine.Lookup, Get, Offer and ShardFor's hashed route
//     under them (the sharded subtests);
//   - the classifier decision behind a healthy breaker.
//
// AllocsPerRun divides the mallocs by the runs as integers, so a path
// that allocates once in ten calls reads as 0. A shape with work that
// runs only now and then, like a collection pass every few dozen
// misses, is therefore measured in batches of 1 000 calls per run, and
// any rate of 0.001 allocations per call or more fails.
//
// A new allocation anywhere on these paths fails here, plain and under
// -race.
func TestHotPathAllocs(t *testing.T) {
	newShard := func() *Engine {
		policy, err := cache.NewSharded(1<<20, 4, func(c int64) cache.Policy {
			return cache.NewLRU(c)
		})
		if err != nil {
			t.Fatal(err)
		}
		eng, err := New(policy, core.AdmitAll{})
		if err != nil {
			t.Fatal(err)
		}
		return eng
	}

	const (
		key  = uint64(0xfeedbeef)
		size = int64(4096)
	)

	t.Run("EngineLookupHit", func(t *testing.T) {
		eng := newShard()
		if out := eng.Lookup(key, size, eng.NextTick(), nil); !out.Written {
			t.Fatalf("seeding Offer not admitted: %+v", out)
		}
		tick := eng.NextTick()
		if !eng.Get(key, size, tick) {
			t.Fatal("seeded key not resident")
		}
		if n := testing.AllocsPerRun(200, func() {
			if out := eng.Lookup(key, size, tick, nil); !out.Hit {
				t.Fatal("hit path missed")
			}
		}); n != 0 {
			t.Errorf("Engine.Lookup hit path allocates %.1f/op, want 0", n)
		}
	})

	t.Run("EngineLookupHitInstrumented", func(t *testing.T) {
		// The instrumented path — sampler hit, two clock reads, one
		// histogram record on every call (SampleEvery 1 forces the worst
		// case) — must stay as allocation-free as the bare one: the whole
		// point of the obs record path.
		eng := newShard()
		eng.SetInstruments(NewInstruments(faults.NewFakeClock(), 1))
		if out := eng.Lookup(key, size, eng.NextTick(), nil); !out.Written {
			t.Fatalf("seeding Offer not admitted: %+v", out)
		}
		tick := eng.NextTick()
		if n := testing.AllocsPerRun(200, func() {
			if out := eng.Lookup(key, size, tick, nil); !out.Hit {
				t.Fatal("hit path missed")
			}
		}); n != 0 {
			t.Errorf("instrumented Engine.Lookup hit path allocates %.1f/op, want 0", n)
		}
		if s := eng.Instruments().Lookup.Snapshot(); s.Count < 200 {
			t.Errorf("instrumentation recorded %d lookups, want >= 200 (sampling must have fired)", s.Count)
		}
	})

	t.Run("EngineLookupMissEvicting", func(t *testing.T) {
		// An admitted miss into a full stripe: the LRU evicts its tail
		// and reuses that arena slot for the new key.
		eng := newShard()
		next := uint64(1 << 32)
		miss := func() {
			next++
			if out := eng.Lookup(next, size, eng.NextTick(), nil); out.Hit || !out.Written {
				t.Fatalf("new key not admitted on a miss: %+v", out)
			}
		}
		for range 4 * (1 << 20) / size {
			miss()
		}
		if n := testing.AllocsPerRun(200, miss); n != 0 {
			t.Errorf("Engine.Lookup admitting miss allocates %.1f/op, want 0", n)
		}
		if p := eng.Policy(); p.Used()+size <= p.Cap() {
			t.Fatalf("policy holds %d of %d bytes: misses did not evict", p.Used(), p.Cap())
		}
	})

	t.Run("EngineLookupMissFlashGC", func(t *testing.T) {
		// Evicting misses with a store attached: each eviction
		// invalidates an extent, each admission programs one, and every
		// 16 misses the collector erases a segment. Every fourth miss
		// also re-reads the key admitted 150 misses earlier, so the LRU
		// keeps some old extents live and collection relocates them.
		// Batched, because the collector's share is a fraction of an
		// allocation per miss.
		const batch, runs = 1000, 20
		eng := newShard()
		if err := AttachFlash(eng, 64<<10, 1.25); err != nil {
			t.Fatal(err)
		}
		next := uint64(1 << 32)
		misses := func() {
			for range batch {
				next++
				if out := eng.Lookup(next, size, eng.NextTick(), nil); out.Hit || !out.Written {
					t.Fatalf("new key not admitted on a miss: %+v", out)
				}
				if next%4 == 0 {
					eng.Lookup(next-150, size, eng.NextTick(), nil)
				}
			}
		}
		for range 10 {
			misses()
		}
		fs := eng.Flash()
		before := fs.Stats()
		if n := testing.AllocsPerRun(runs, misses); n != 0 {
			t.Errorf("%d admitting misses with a store attached allocate %.0f times, want 0", batch, n)
		}
		after := fs.Stats()
		if after.Erases == before.Erases || after.Relocations == before.Relocations {
			t.Fatalf("no collection during the measured runs: erases %d -> %d, relocations %d -> %d",
				before.Erases, after.Erases, before.Relocations, after.Relocations)
		}
	})

	// A hit with a store attached reads the extent's record back and
	// verifies its checksum, through the store's own record buffer.
	// Observed, the store's sampler times every other read into its read
	// histogram, so each run makes two reads: one sampled, one not.
	for _, observed := range []bool{false, true} {
		name, reads := "EngineGetHitFlashAttached", 1
		if observed {
			name, reads = "EngineGetHitFlashObserved", 2
		}
		t.Run(name, func(t *testing.T) {
			eng := newShard()
			if err := AttachFlash(eng, 64<<10, 1.25); err != nil {
				t.Fatal(err)
			}
			if observed {
				eng.Flash().SetObserver(flash.NewObserver(faults.NewFakeClock().Now, 2))
			}
			if out := eng.Lookup(key, size, eng.NextTick(), nil); !out.Written {
				t.Fatalf("seeding Offer not admitted: %+v", out)
			}
			if !eng.Flash().Contains(key) {
				t.Fatal("seeded key has no extent")
			}
			tick := eng.NextTick()
			if n := testing.AllocsPerRun(200, func() {
				for range reads {
					if !eng.Get(key, size, tick) {
						t.Fatal("hit path missed")
					}
				}
			}); n != 0 {
				t.Errorf("%s: Engine.Get hit path allocates %.1f/op, want 0", name, n)
			}
			if o := eng.Flash().Observer(); o != nil && o.Read.Snapshot().Count < 200 {
				t.Errorf("observer timed %d reads, want >= 200 (sampling must have fired)", o.Read.Snapshot().Count)
			}
		})
	}

	newSharded := func(t *testing.T) *ShardedEngine {
		shards := make([]*Engine, 4)
		for i := range shards {
			shards[i] = newShard()
		}
		srv, err := NewShardedEngine(shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		return srv
	}

	t.Run("ShardedLookupHit", func(t *testing.T) {
		srv := newSharded(t)
		if out := srv.Lookup(key, size, srv.NextTick(), nil); !out.Written {
			t.Fatalf("seeding Offer not admitted: %+v", out)
		}
		tick := srv.NextTick()
		// Hashes the key on every call: the multi-shard composition
		// covers the route's share of the hot path.
		if n := testing.AllocsPerRun(200, func() {
			if out := srv.Lookup(key, size, tick, nil); !out.Hit {
				t.Fatal("hit path missed")
			}
		}); n != 0 {
			t.Errorf("ShardedEngine.Lookup hit path allocates %.1f/op, want 0", n)
		}
	})

	t.Run("ShardedGetHit", func(t *testing.T) {
		srv := newSharded(t)
		if out := srv.Lookup(key, size, srv.NextTick(), nil); !out.Written {
			t.Fatalf("seeding Offer not admitted: %+v", out)
		}
		tick := srv.NextTick()
		if n := testing.AllocsPerRun(200, func() {
			if !srv.Get(key, size, tick) {
				t.Fatal("hit path missed")
			}
		}); n != 0 {
			t.Errorf("ShardedEngine.Get hit path allocates %.1f/op, want 0", n)
		}
	})

	t.Run("ShardedOfferMissEvicting", func(t *testing.T) {
		// The HTTP PUT path: an admitted miss routed to a shard whose
		// stripes are all full. The feature vector is non-empty so a
		// copy of it would show as an allocation.
		srv := newSharded(t)
		feat := []float64{0.25, 0.5, 0.75}
		next := uint64(1 << 32)
		offer := func() {
			next++
			if out := srv.Offer(next, size, srv.NextTick(), feat); !out.Written {
				t.Fatalf("new key not admitted: %+v", out)
			}
		}
		for range 4 * 4 * (1 << 20) / size {
			offer()
		}
		for i, sh := range srv.Shards() {
			if p := sh.Policy(); p.Used() != p.Cap() {
				t.Fatalf("shard %d holds %d of %d bytes: a stripe is not full", i, p.Used(), p.Cap())
			}
		}
		if n := testing.AllocsPerRun(200, offer); n != 0 {
			t.Errorf("ShardedEngine.Offer admitting miss allocates %.1f/op, want 0", n)
		}
	})

	// The classifier miss path: a healthy breaker over the classifier
	// admission over a history table that is already full, so every new
	// bypass evicts its oldest entry.
	newDecider := func(t *testing.T) (*Breaker, *core.HistoryTable) {
		const capacity = 64
		table := core.NewHistoryTable(capacity)
		for k := uint64(0); k < capacity; k++ {
			table.Insert(k, 0)
		}
		adm, err := core.NewClassifierAdmission(featureStub{}, table, labeling.Criteria{M: 1 << 20})
		if err != nil {
			t.Fatal(err)
		}
		return newBreaker(t, adm, BreakerConfig{}), table
	}
	oneTime, reused := []float64{1}, []float64{0}

	t.Run("ClassifierBypassEvicting", func(t *testing.T) {
		b, table := newDecider(t)
		next, tick := uint64(1<<32), 1
		if n := testing.AllocsPerRun(200, func() {
			next++
			tick++
			if d := b.Decide(next, tick, oneTime); d.Admit || d.Degraded || !d.PredictedOneTime {
				t.Fatalf("one-time miss not bypassed: %+v", d)
			}
		}); n != 0 {
			t.Errorf("bypassing classifier decision allocates %.1f/op, want 0", n)
		}
		if table.Len() != table.Capacity() {
			t.Errorf("table holds %d of %d: bypasses did not evict", table.Len(), table.Capacity())
		}
	})

	t.Run("ClassifierRectified", func(t *testing.T) {
		b, _ := newDecider(t)
		next, tick := uint64(1<<32), 1
		if n := testing.AllocsPerRun(200, func() {
			next++
			tick++
			b.Decide(next, tick, oneTime)
			tick++
			if d := b.Decide(next, tick, oneTime); !d.Admit || !d.Rectified || d.Degraded {
				t.Fatalf("quick return not rectified: %+v", d)
			}
		}); n != 0 {
			t.Errorf("rectifying classifier decision allocates %.1f/op, want 0", n)
		}
	})

	t.Run("ClassifierAdmitted", func(t *testing.T) {
		b, _ := newDecider(t)
		next, tick := uint64(1<<32), 1
		if n := testing.AllocsPerRun(200, func() {
			next++
			tick++
			if d := b.Decide(next, tick, reused); !d.Admit || d.PredictedOneTime || d.Degraded {
				t.Fatalf("reused miss not admitted: %+v", d)
			}
		}); n != 0 {
			t.Errorf("admitting classifier decision allocates %.1f/op, want 0", n)
		}
	})

	t.Run("HistoryTableFillFromEmpty", func(t *testing.T) {
		// newDecider's table is prefilled, so a table that grew on first
		// use would pass the subtests above. Here every run takes a table
		// fresh from NewHistoryTable and fills it through twice its
		// capacity, then rectifies half of what is left and removes the
		// rest: its memory must be fixed at construction.
		const capacity, runs = 64, 20
		tables := make([]*core.HistoryTable, runs+1)
		for i := range tables {
			tables[i] = core.NewHistoryTable(capacity)
		}
		next := 0
		if n := testing.AllocsPerRun(runs, func() {
			table := tables[next]
			next++
			for k := range uint64(2 * capacity) {
				table.Insert(k, int(k))
			}
			for k := uint64(capacity); k < 2*capacity; k += 2 {
				if !table.Rectify(k, 2*capacity, 2*capacity) {
					t.Fatalf("key %d not rectified", k)
				}
				table.Remove(k + 1)
			}
			if table.Len() != 0 {
				t.Fatalf("table holds %d entries, want 0", table.Len())
			}
		}); n != 0 {
			t.Errorf("filling a fresh history table allocates %.1f/run, want 0", n)
		}
	})

	t.Run("ShardFor", func(t *testing.T) {
		srv := newSharded(t)
		if n := testing.AllocsPerRun(200, func() {
			srv.ShardFor(key)
		}); n != 0 {
			t.Errorf("ShardedEngine.ShardFor allocates %.1f/op, want 0", n)
		}
	})
}
