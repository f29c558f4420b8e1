package slab

import "testing"

// splitmix64 is a tiny seeded generator, so the stream does not depend
// on math/rand's algorithm.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// checkArena verifies the arena against a model map: the same keys and
// sizes, every key reachable from its home bucket without crossing an
// empty one, the index at most half full, and every unused slot on the
// free list exactly once.
func checkArena(t *testing.T, step int, a *Arena[int64], model map[uint64]int64) {
	t.Helper()
	if a.n != len(model) {
		t.Fatalf("step %d: %d keys stored, model has %d", step, a.n, len(model))
	}
	for k, size := range model {
		s := a.Lookup(k)
		if s == Nil || *a.Val(s) != size {
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
	for s := a.free; s != Nil; s = a.links[s].Next {
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
		var a Arena[int64]
		model := map[uint64]int64{}
		rng := splitmix64(space)
		for step := 0; step < 20000; step++ {
			r := rng.next()
			// Keys share their low bits, so their home buckets collide.
			key := (r>>8)%space<<20 | 0xabc
			if s := a.Lookup(key); s != Nil {
				if r&3 != 0 {
					a.Del(s)
					delete(model, key)
				}
			} else if r&3 != 3 {
				a.Add(key, int64(r>>40))
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
	var a Arena[int64]
	if a.Lookup(0) != Nil || a.Lookup(42) != Nil {
		t.Fatal("zero arena reports a key")
	}
	s := a.Add(0, 7)
	if s == Nil || a.Lookup(0) != s || *a.Val(s) != 7 {
		t.Fatalf("key 0 not stored: slot %d", s)
	}
}

// TestArenaFootprint pins what Footprint counts: a 16-byte node (key and
// an int64 payload) and an 8-byte Link per slot of capacity, slot 0
// included, and 8 bytes per index bucket.
func TestArenaFootprint(t *testing.T) {
	var a Arena[int64]
	if got := a.Footprint(); got != 0 {
		t.Fatalf("zero arena holds %d bytes, want 0", got)
	}
	a = Make[int64](7) // 8 slots, 16 buckets
	if got, want := a.Footprint(), 8*16+8*8+16*8; got != want {
		t.Fatalf("Make(7) holds %d bytes, want %d", got, want)
	}
}
