package cache

import (
	"testing"
)

// collect drains a Ranger into (keys, sizes) slices in visit order.
func collect(r Ranger) (keys []uint64, sizes []int64) {
	r.Range(func(key uint64, size int64) bool {
		keys = append(keys, key)
		sizes = append(sizes, size)
		return true
	})
	return
}

// TestAllPoliciesImplementRanger pins that every registered online
// policy (and Belady) can enumerate residents — the snapshot path
// depends on it.
func TestAllPoliciesImplementRanger(t *testing.T) {
	next := make([]int, 64)
	for _, name := range Names() {
		p, err := New(name, 1<<20, next)
		if err != nil {
			t.Fatal(err)
		}
		if name == "belady" {
			// Offline-only; a daemon never snapshots it.
			continue
		}
		r, ok := p.(Ranger)
		if !ok {
			t.Errorf("%s does not implement Ranger", name)
			continue
		}
		for k := uint64(1); k <= 10; k++ {
			p.Admit(k, 100, int(k))
		}
		keys, _ := collect(r)
		if len(keys) != p.Len() {
			t.Errorf("%s: Range visited %d keys, Len()=%d", name, len(keys), p.Len())
		}
		seen := make(map[uint64]bool, len(keys))
		for _, k := range keys {
			if seen[k] {
				t.Errorf("%s: Range visited key %d twice", name, k)
			}
			seen[k] = true
			if !p.Contains(k) {
				t.Errorf("%s: Range visited non-resident key %d", name, k)
			}
		}
	}
}

// TestLRURangeOrderIsRestoreOrder pins the exactness guarantee: walking
// an LRU cold-to-hot and re-admitting into a fresh LRU reproduces the
// identical eviction order.
func TestLRURangeOrderIsRestoreOrder(t *testing.T) {
	src := NewLRU(1000)
	for k := uint64(1); k <= 8; k++ {
		src.Admit(k, 100, 0)
	}
	src.Get(3, 0) // 3 becomes hottest
	src.Get(1, 0) // then 1

	keys, sizes := collect(src)
	if want := []uint64{2, 4, 5, 6, 7, 8, 3, 1}; !equalU64(keys, want) {
		t.Fatalf("cold-to-hot order = %v, want %v", keys, want)
	}

	dst := NewLRU(1000)
	for i, k := range keys {
		dst.Admit(k, sizes[i], 0)
	}
	// Forcing evictions must now victimize the same keys in the same
	// order on both caches.
	for i := 0; i < 4; i++ {
		src.Admit(100+uint64(i), 100, 0)
		dst.Admit(100+uint64(i), 100, 0)
	}
	sk, _ := collect(src)
	dk, _ := collect(dst)
	if !equalU64(sk, dk) {
		t.Fatalf("after restore + evictions: src=%v dst=%v", sk, dk)
	}
}

func TestShardedRange(t *testing.T) {
	s, err := NewSharded(1<<20, 4, func(c int64) Policy { return NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(0); k < 100; k++ {
		s.Admit(k, 64, 0)
	}
	keys, _ := collect(s)
	if len(keys) != s.Len() {
		t.Fatalf("sharded Range visited %d keys, Len()=%d", len(keys), s.Len())
	}
	// Early stop is honored.
	n := 0
	s.Range(func(uint64, int64) bool { n++; return n < 7 })
	if n != 7 {
		t.Fatalf("early-stopped Range visited %d keys, want 7", n)
	}
}

func equalU64(a, b []uint64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestAsRangerRefusesPartialWalk pins that a striped front ranges only
// when every stripe can: Sharded implements Range whatever it holds,
// and a belady stripe would be skipped, so the walk would come out
// empty without an error.
func TestAsRangerRefusesPartialWalk(t *testing.T) {
	next := make([]int, 64)
	for _, tc := range []struct {
		policy  string
		stripes int
		want    bool
	}{{"belady", 1, false}, {"belady", 4, false}, {"lru", 1, true}, {"lru", 4, true}} {
		bare, err := New(tc.policy, 1<<20, next)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := AsRanger(bare); ok != tc.want {
			t.Errorf("bare %s: AsRanger ok=%v, want %v", tc.policy, ok, tc.want)
		}
		sh, err := NewSharded(1<<20, tc.stripes, func(c int64) Policy {
			p, _ := New(tc.policy, c, next)
			return p
		})
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := AsRanger(sh); ok != tc.want {
			t.Errorf("%s over %d stripes: AsRanger ok=%v, want %v", tc.policy, tc.stripes, ok, tc.want)
		}
	}
}
