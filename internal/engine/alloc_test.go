package engine

import (
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/faults"
)

// TestHotPathAllocs is the dynamic half of the hotalloc analyzer's
// contract: the checked-in hotalloc.baseline pins the serving hot path
// at zero escape sites statically, and this test pins it at zero
// allocations per operation at runtime. If either side drifts — a new
// allocation on Lookup, or a baseline edit that quietly blesses one —
// one of the two fails.
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
			t.Errorf("Engine.Lookup hit path allocates %.1f/op, baseline pins 0", n)
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
			t.Errorf("instrumented Engine.Lookup hit path allocates %.1f/op, baseline pins 0", n)
		}
		if s := eng.Instruments().Lookup.Snapshot(); s.Count < 200 {
			t.Errorf("instrumentation recorded %d lookups, want >= 200 (sampling must have fired)", s.Count)
		}
	})

	t.Run("EngineGetHitFlashAttached", func(t *testing.T) {
		// A hit with a store attached reads the extent's record back and
		// verifies its checksum, through the store's own record buffer.
		eng := newShard()
		if err := AttachFlash(eng, 64<<10, 1.25); err != nil {
			t.Fatal(err)
		}
		if out := eng.Lookup(key, size, eng.NextTick(), nil); !out.Written {
			t.Fatalf("seeding Offer not admitted: %+v", out)
		}
		if !eng.Flash().Contains(key) {
			t.Fatal("seeded key has no extent")
		}
		tick := eng.NextTick()
		if n := testing.AllocsPerRun(200, func() {
			if !eng.Get(key, size, tick) {
				t.Fatal("hit path missed")
			}
		}); n != 0 {
			t.Errorf("flash-attached Engine.Get hit path allocates %.1f/op, baseline pins 0", n)
		}
	})

	t.Run("ShardedLookupHit", func(t *testing.T) {
		shards := make([]*Engine, 4)
		for i := range shards {
			shards[i] = newShard()
		}
		srv, err := NewShardedEngine(shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		if out := srv.Lookup(key, size, srv.NextTick(), nil); !out.Written {
			t.Fatalf("seeding Offer not admitted: %+v", out)
		}
		tick := srv.NextTick()
		// Routes through Ring.Server on every call: the multi-shard
		// composition covers internal/cluster's pinned hot function too.
		if n := testing.AllocsPerRun(200, func() {
			if out := srv.Lookup(key, size, tick, nil); !out.Hit {
				t.Fatal("hit path missed")
			}
		}); n != 0 {
			t.Errorf("ShardedEngine.Lookup hit path allocates %.1f/op, baseline pins 0", n)
		}
	})

	t.Run("ShardFor", func(t *testing.T) {
		shards := []*Engine{newShard(), newShard()}
		srv, err := NewShardedEngine(shards, 1)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			srv.ShardFor(key)
		}); n != 0 {
			t.Errorf("ShardedEngine.ShardFor allocates %.1f/op, baseline pins 0", n)
		}
	})
}
