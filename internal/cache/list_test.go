package cache

import "testing"

// live returns every stored key with its node, for tests that inspect
// policy state.
func (a *arena) live() map[uint64]node {
	out := make(map[uint64]node, a.n)
	for _, b := range a.index {
		if s := int32(uint32(b)); s != nilSlot {
			out[a.nodes[s].key] = a.nodes[s]
		}
	}
	return out
}

// checkArena verifies the arena against a model map: the same keys and
// sizes, every key reachable from its home bucket without crossing an
// empty one, the index at most half full, and every unused slot on the
// free list exactly once.
func checkArena(t *testing.T, step int, a *arena, model map[uint64]int64) {
	t.Helper()
	if a.n != len(model) {
		t.Fatalf("step %d: %d keys stored, model has %d", step, a.n, len(model))
	}
	for k, size := range model {
		s := a.lookup(k)
		if s == nilSlot || a.nodes[s].size != size {
			t.Fatalf("step %d: key %d at slot %d, want size %d", step, k, s, size)
		}
	}
	if len(a.index) > 0 && 2*a.n > len(a.index) {
		t.Fatalf("step %d: %d keys in %d buckets", step, a.n, len(a.index))
	}
	used := 0
	for _, b := range a.index {
		if b != 0 {
			used++
		}
	}
	free := 0
	seen := map[int32]bool{}
	for s := a.free; s != nilSlot; s = a.links[s].next {
		if seen[s] {
			t.Fatalf("step %d: free list revisits slot %d", step, s)
		}
		seen[s] = true
		free++
	}
	if slots := max(len(a.nodes)-1, 0); used != a.n || used+free != slots {
		t.Fatalf("step %d: %d indexed + %d free != %d slots (n=%d)", step, used, free, slots, a.n)
	}
}

// TestArenaMatchesMap drives the arena's add/del/lookup with a seeded
// stream over a small key space — so the index grows, clusters form and
// backward shifts move entries — and checks it against a map after
// every operation.
func TestArenaMatchesMap(t *testing.T) {
	for _, space := range []uint64{1, 3, 17, 200, 5000} {
		var a arena
		model := map[uint64]int64{}
		rng := splitmix64(space)
		for step := 0; step < 20000; step++ {
			r := rng.next()
			// Keys share their low bits, so their home buckets collide.
			key := (r>>8)%space<<20 | 0xabc
			if s := a.lookup(key); s != nilSlot {
				if r&3 != 0 {
					a.del(s)
					delete(model, key)
				}
			} else if r&3 != 3 {
				a.add(key, int64(r>>40))
				model[key] = int64(r >> 40)
			}
			if step%97 == 0 || space < 20 {
				checkArena(t, step, &a, model)
			}
		}
		checkArena(t, -1, &a, model)
	}
}

// TestArenaEmpty pins the zero arena: every lookup misses, and the
// first add builds the index.
func TestArenaEmpty(t *testing.T) {
	var a arena
	if a.lookup(0) != nilSlot || a.lookup(42) != nilSlot {
		t.Fatal("zero arena reports a key")
	}
	s := a.add(0, 7)
	if s == nilSlot || a.lookup(0) != s || a.nodes[s].size != 7 {
		t.Fatalf("key 0 not stored: slot %d", s)
	}
}

// TestListPoliciesSteadyStateAllocs pins what the arena buys: once a
// list policy has held its working set, requests that hit, miss, evict
// and re-admit allocate nothing.
func TestListPoliciesSteadyStateAllocs(t *testing.T) {
	const capacity = 4 << 10
	keys, sizes, _ := digestStream(capacity, 1<<14)
	for _, name := range []string{"lru", "fifo", "s3lru", "arc", "lirs"} {
		t.Run(name, func(t *testing.T) {
			p, err := New(name, capacity, nil)
			if err != nil {
				t.Fatal(err)
			}
			i := 0
			request := func() {
				j := i % len(keys)
				if !p.Get(keys[j], i) {
					p.Admit(keys[j], sizes[j], i)
				}
				i++
			}
			for range 4 * len(keys) {
				request()
			}
			if n := testing.AllocsPerRun(len(keys), request); n != 0 {
				t.Errorf("%s allocates %.3f/request in steady state, want 0", name, n)
			}
		})
	}
}
