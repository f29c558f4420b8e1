package cache

import "testing"

// live returns every stored key with its payload, for tests that
// inspect policy state. A freed slot keeps its last key, which the
// index no longer maps back to it.
func (a *arena) live() map[uint64]entry {
	out := make(map[uint64]entry, a.Len())
	for s := int32(1); s < int32(len(a.Links())); s++ {
		if key := a.Key(s); a.Lookup(key) == s {
			out[key] = *a.Val(s)
		}
	}
	return out
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
