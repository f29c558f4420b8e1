package cache

import "testing"

// evictStream is the seeded request stream the eviction-callback tests
// replay: keys over a small universe with a fixed size per key, plus the
// next-access index Belady needs.
type evictStream struct {
	keys []uint64
	next []int
}

const evictUniverse = 96

func evictSize(key uint64) int64 { return int64(8 + (key*7)%57) }

func newEvictStream(seed uint64, n int) evictStream {
	st := evictStream{keys: make([]uint64, n), next: make([]int, n)}
	x := seed
	for i := range st.keys {
		x = x*6364136223846793005 + 1442695040888963407
		st.keys[i] = (x >> 33) % evictUniverse
	}
	last := map[uint64]int{}
	for i := n - 1; i >= 0; i-- {
		if j, ok := last[st.keys[i]]; ok {
			st.next[i] = j
		} else {
			st.next[i] = -1
		}
		last[st.keys[i]] = i
	}
	return st
}

// TestEvictNotifyAccountsForResidents is the Policy.SetEvictNotify
// contract as a model check: a resident set kept only from Admit, the
// eviction callback and Remove equals what Contains and Range report,
// at every step, for every policy, bare and behind Sharded.
func TestEvictNotifyAccountsForResidents(t *testing.T) {
	const capacity = 600
	st := newEvictStream(11, 6000)
	factories := map[string]func(c int64) Policy{
		"lru":    func(c int64) Policy { return NewLRU(c) },
		"fifo":   func(c int64) Policy { return NewFIFO(c) },
		"s3lru":  func(c int64) Policy { return NewSLRU(c, 3) },
		"arc":    func(c int64) Policy { return NewARC(c) },
		"lirs":   func(c int64) Policy { return NewLIRS(c, DefaultLIRRatio) },
		"belady": func(c int64) Policy { return NewBelady(c, st.next) },
	}
	for name, factory := range factories {
		sharded, err := NewSharded(4*capacity, 4, factory)
		if err != nil {
			t.Fatal(err)
		}
		for variant, p := range map[string]Policy{name: factory(capacity), "sharded-" + name: sharded} {
			// Belady does not enumerate its residents, bare or striped.
			t.Run(variant, func(t *testing.T) { checkEvictModel(t, p, st, name != "belady") })
		}
	}
}

func checkEvictModel(t *testing.T, p Policy, st evictStream, ranged bool) {
	model := map[uint64]int64{}
	evictions := 0
	// Only a bare policy can be asked from inside its own callback;
	// Sharded would be re-entering the stripe lock it holds.
	_, sharded := p.(*Sharded)
	p.SetEvictNotify(func(key uint64) {
		if !sharded && p.Contains(key) {
			t.Errorf("callback for %d while still resident", key)
		}
		if _, ok := model[key]; !ok {
			t.Errorf("callback for %d, which the model does not hold", key)
		}
		delete(model, key)
		evictions++
	})
	check := func(step int) {
		t.Helper()
		for k := uint64(0); k < evictUniverse; k++ {
			if _, want := model[k]; p.Contains(k) != want {
				t.Fatalf("step %d: Contains(%d) = %v, model says %v", step, k, !want, want)
			}
		}
		if p.Len() != len(model) {
			t.Fatalf("step %d: Len = %d, model holds %d", step, p.Len(), len(model))
		}
		if !ranged {
			return
		}
		visited := 0
		p.(Ranger).Range(func(key uint64, size int64) bool {
			visited++
			if model[key] != size {
				t.Fatalf("step %d: Range visits %d (%d bytes), model says %d bytes", step, key, size, model[key])
			}
			return true
		})
		if visited != len(model) {
			t.Fatalf("step %d: Range visited %d residents, model holds %d", step, visited, len(model))
		}
	}
	removes := 0
	for i, key := range st.keys {
		switch {
		case i%17 == 16:
			// An out-of-band removal is the caller's own doing and is not
			// reported back to it.
			before := evictions
			if p.(Remover).Remove(key) {
				delete(model, key)
				removes++
			}
			if evictions != before {
				t.Fatalf("step %d: Remove(%d) fired the eviction callback", i, key)
			}
		case !p.Get(key, i):
			// Into the model first: an admission can evict the very object
			// it admits (S3LRU trimming a lone probationary entry).
			model[key] = evictSize(key)
			p.Admit(key, evictSize(key), i)
		}
		if i%64 == 0 {
			check(i)
		}
	}
	check(len(st.keys))
	if evictions == 0 || removes == 0 {
		t.Fatalf("stream exercised %d evictions and %d removals; the test needs both", evictions, removes)
	}

	// Uninstalled, the policy keeps evicting and says nothing.
	p.SetEvictNotify(nil)
	before := evictions
	for k := uint64(1000); k < 1100; k++ {
		p.Admit(k, 50, len(st.keys))
	}
	if evictions != before {
		t.Fatal("callback fired after SetEvictNotify(nil)")
	}
}
