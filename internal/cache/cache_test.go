package cache

import (
	"testing"
	"testing/quick"
)

func allPolicies(capacity int64, n int) []Policy {
	next := make([]int, n)
	for i := range next {
		next[i] = -1
	}
	return []Policy{
		NewLRU(capacity),
		NewFIFO(capacity),
		NewSLRU(capacity, 3),
		NewARC(capacity),
		NewLIRS(capacity, DefaultLIRRatio),
		NewBelady(capacity, next),
	}
}

func TestNewByName(t *testing.T) {
	next := []int{-1}
	for _, name := range Names() {
		p, err := New(name, 1000, next)
		if err != nil {
			t.Fatalf("New(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Fatalf("New(%q).Name() = %q", name, p.Name())
		}
		if p.Cap() != 1000 {
			t.Fatalf("New(%q).Cap() = %d", name, p.Cap())
		}
	}
	if _, err := New("nope", 1000, nil); err == nil {
		t.Fatal("unknown policy must error")
	}
	if _, err := New("lru", 0, nil); err == nil {
		t.Fatal("zero capacity must error")
	}
	if _, err := New("belady", 1000, nil); err == nil {
		t.Fatal("belady without next index must error")
	}
	// Online policies accept nil next.
	if _, err := New("arc", 1000, nil); err != nil {
		t.Fatal(err)
	}
}

// TestUniversalInvariants drives every policy with the same adversarial
// workload and checks the contracts shared by all policies.
func TestUniversalInvariants(t *testing.T) {
	const steps = 30000
	seq := make([]uint64, steps)
	sizes := make([]int64, steps)
	x := uint64(7)
	for i := range seq {
		x = x*6364136223846793005 + 1
		switch (x >> 60) % 4 {
		case 0: // hot set
			seq[i] = (x >> 33) % 20
		case 1: // warm set
			seq[i] = 100 + (x>>33)%200
		default: // one-time-ish cold keys
			seq[i] = 10000 + uint64(i)
		}
		sizes[i] = int64(1 + (x>>20)%64)
	}
	for _, p := range allPolicies(500, steps) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			for i := range seq {
				k := seq[i]
				hit := p.Get(k, i)
				if hit != p.Contains(k) && p.Name() != "lirs" {
					// For LIRS, Get may relocate entries but residence
					// must agree too; check universally below.
					t.Fatalf("step %d: Get=%v disagrees with Contains=%v", i, hit, p.Contains(k))
				}
				if !hit {
					p.Admit(k, sizes[i], i)
				}
				if p.Used() > p.Cap() {
					t.Fatalf("step %d: used %d > cap %d", i, p.Used(), p.Cap())
				}
				if p.Used() < 0 {
					t.Fatalf("step %d: negative used bytes %d", i, p.Used())
				}
				if p.Len() < 0 {
					t.Fatalf("step %d: negative len", i)
				}
				// After a miss that was admitted, the object is resident
				// (all our sizes are below capacity).
				if !hit && !p.Contains(k) {
					t.Fatalf("step %d: admitted object not resident", i)
				}
			}
		})
	}
}

// TestHitImpliesPriorAdmit: a Get can only hit if the key was admitted
// earlier and not yet evicted; with no Admit calls there are no hits.
func TestHitImpliesPriorAdmit(t *testing.T) {
	for _, p := range allPolicies(100, 1000) {
		for i := 0; i < 1000; i++ {
			if p.Get(uint64(i%50), i) {
				t.Fatalf("%s: hit without any admit", p.Name())
			}
		}
	}
}

// Property: for every policy, running any short random workload keeps
// byte accounting within capacity and Len consistent with admits/evicts.
func TestQuickCapacityProperty(t *testing.T) {
	f := func(keys []uint8, rawSizes []uint8) bool {
		n := len(keys)
		if n == 0 {
			return true
		}
		for _, p := range allPolicies(64, n) {
			for i := 0; i < n; i++ {
				size := int64(1)
				if len(rawSizes) > 0 {
					size = int64(rawSizes[i%len(rawSizes)]%32) + 1
				}
				if !p.Get(uint64(keys[i]), i) {
					p.Admit(uint64(keys[i]), size, i)
				}
				if p.Used() > p.Cap() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestBypassDoesNotMutate verifies the paper's bypass semantics: not
// admitting on a miss leaves the policy state byte-identical, observed
// through subsequent behaviour.
func TestBypassDoesNotMutate(t *testing.T) {
	build := func(bypassKey bool) []Policy {
		ps := allPolicies(200, 4000)
		for _, p := range ps {
			for i := 0; i < 2000; i++ {
				k := uint64(i % 30)
				if !p.Get(k, i) {
					p.Admit(k, 7, i)
				}
			}
			// The probe miss: bypassed in one world, absent in the other.
			if bypassKey {
				_ = p.Get(9999, 2000) // miss, no admit: must be a no-op
			}
		}
		return ps
	}
	a := build(true)
	b := build(false)
	for i := range a {
		// After identical continuations, hit patterns must match.
		for j := 0; j < 500; j++ {
			k := uint64(j % 30)
			ha := a[i].Get(k, 2001+j)
			hb := b[i].Get(k, 2001+j)
			if ha != hb {
				t.Fatalf("%s: bypassed miss mutated state (step %d)", a[i].Name(), j)
			}
		}
		if a[i].Used() != b[i].Used() || a[i].Len() != b[i].Len() {
			t.Fatalf("%s: bypass changed accounting", a[i].Name())
		}
	}
}
