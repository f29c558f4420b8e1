package cluster

import "testing"

func TestRingValidation(t *testing.T) {
	if _, err := NewRing(0, 64, 1); err == nil {
		t.Fatal("zero servers must error")
	}
	r, err := NewRing(4, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if r.Servers() != 4 {
		t.Fatalf("servers = %d", r.Servers())
	}
}

func TestRingDeterministicRouting(t *testing.T) {
	a, _ := NewRing(8, 64, 42)
	b, _ := NewRing(8, 64, 42)
	for key := uint64(0); key < 10000; key++ {
		if a.Server(key) != b.Server(key) {
			t.Fatalf("key %d routes differently on identical rings", key)
		}
	}
}

func TestRingBalance(t *testing.T) {
	r, _ := NewRing(8, 128, 1)
	counts := make([]int, 8)
	const keys = 100000
	for key := uint64(0); key < keys; key++ {
		counts[r.Server(key)]++
	}
	want := keys / 8
	for s, c := range counts {
		if c < want/2 || c > want*2 {
			t.Fatalf("server %d owns %d of %d keys (want ~%d)", s, c, keys, want)
		}
	}
}

func TestRingMinimalRemapping(t *testing.T) {
	// Removing one of n servers must remap ~1/n of the keys and ONLY
	// keys previously owned by the removed server.
	r, _ := NewRing(10, 128, 7)
	smaller, err := r.WithoutServer(3)
	if err != nil {
		t.Fatal(err)
	}
	const keys = 50000
	moved, ownedByRemoved := 0, 0
	for key := uint64(0); key < keys; key++ {
		before := r.Server(key)
		after := smaller.Server(key)
		if before == 3 {
			ownedByRemoved++
			if after == 3 {
				t.Fatalf("key %d still routed to removed server", key)
			}
			continue
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys owned by surviving servers were remapped", moved)
	}
	frac := float64(ownedByRemoved) / keys
	if frac < 0.05 || frac > 0.2 {
		t.Fatalf("removed server owned %.3f of keys, want ~0.1", frac)
	}
}

func TestRingGrowthMinimalRemapping(t *testing.T) {
	// Adding an (n+1)-th server must pull ~1/(n+1) of the keys onto the
	// new server and move NOTHING between the existing servers.
	r, _ := NewRing(10, 128, 7)
	bigger := r.WithServer()
	if bigger.Servers() != 11 {
		t.Fatalf("servers = %d after growth", bigger.Servers())
	}
	const keys = 50000
	gained := 0
	for key := uint64(0); key < keys; key++ {
		before := r.Server(key)
		after := bigger.Server(key)
		if after == 10 {
			gained++
			continue
		}
		if before != after {
			t.Fatalf("key %d moved between surviving servers (%d -> %d)", key, before, after)
		}
	}
	frac := float64(gained) / keys
	if frac < 0.04 || frac > 0.18 {
		t.Fatalf("new server took %.3f of keys, want ~%.3f", frac, 1.0/11)
	}

	// Growth is the inverse of removal: the grown ring must route
	// identically to a fresh ring of the same size and seed.
	fresh, _ := NewRing(11, 128, 7)
	for key := uint64(0); key < keys; key++ {
		if bigger.Server(key) != fresh.Server(key) {
			t.Fatalf("key %d: grown ring diverges from fresh ring", key)
		}
	}
}

// TestRingRemoveReAddCycles drives the ring through repeated
// loss-and-replacement cycles — the steady state of a long-lived fleet
// — and pins the contract at every step: replacements join as fresh
// identities (never resurrecting the departed id), the live count
// tracks the churn, keys only ever route to servers actually on the
// ring, and each step's remapping stays minimal (a removal spills only
// the departed server's keys; an add moves keys only onto the joiner).
func TestRingRemoveReAddCycles(t *testing.T) {
	const keys = 20000
	r, err := NewRing(6, 64, 11)
	if err != nil {
		t.Fatal(err)
	}
	live := map[int]bool{0: true, 1: true, 2: true, 3: true, 4: true, 5: true}
	victims := []int{2, 0, 6} // third cycle removes a first-cycle replacement
	nextID := 6
	for cycle, victim := range victims {
		smaller, err := r.WithoutServer(victim)
		if err != nil {
			t.Fatalf("cycle %d: remove %d: %v", cycle, victim, err)
		}
		delete(live, victim)
		if smaller.Servers() != len(live) {
			t.Fatalf("cycle %d: Servers() = %d after removal, want %d", cycle, smaller.Servers(), len(live))
		}
		for key := uint64(0); key < keys; key++ {
			before, after := r.Server(key), smaller.Server(key)
			if !live[after] {
				t.Fatalf("cycle %d: key %d routed to dead server %d", cycle, key, after)
			}
			if before != victim && before != after {
				t.Fatalf("cycle %d: key %d moved %d -> %d though %d was removed", cycle, key, before, after, victim)
			}
		}

		grown := smaller.WithServer()
		live[nextID] = true
		if grown.Servers() != len(live) {
			t.Fatalf("cycle %d: Servers() = %d after re-add, want %d", cycle, grown.Servers(), len(live))
		}
		gained := 0
		for key := uint64(0); key < keys; key++ {
			before, after := smaller.Server(key), grown.Server(key)
			if after == nextID {
				gained++
				continue
			}
			if before != after {
				t.Fatalf("cycle %d: key %d moved %d -> %d though only %d joined", cycle, key, before, after, nextID)
			}
		}
		if frac := float64(gained) / keys; frac < 0.03 || frac > 0.35 {
			t.Fatalf("cycle %d: replacement took %.3f of keys, want ~1/%d", cycle, frac, len(live))
		}
		nextID++
		r = grown
	}

	// Resurrection is forbidden by construction: the removed ids' points
	// never come back, so no key may route to them.
	for key := uint64(0); key < keys; key++ {
		if s := r.Server(key); s == 2 || s == 0 || s == 6 {
			t.Fatalf("key %d routed to resurrected server %d", key, s)
		}
	}

	// The whole cycle sequence is deterministic: replaying it on a fresh
	// identical ring routes every key the same way.
	again, _ := NewRing(6, 64, 11)
	for _, victim := range victims {
		smaller, err := again.WithoutServer(victim)
		if err != nil {
			t.Fatal(err)
		}
		again = smaller.WithServer()
	}
	for key := uint64(0); key < keys; key++ {
		if r.Server(key) != again.Server(key) {
			t.Fatalf("key %d: replayed cycle sequence diverged", key)
		}
	}
}

// TestRingShrinkToOneServer walks a fleet down to a single survivor:
// every key must route to it (stably — the degenerate ring is the
// fast-path analog of ShardedEngine's one-shard ShardFor), removing the
// survivor must refuse, and so must removing an id that already left.
func TestRingShrinkToOneServer(t *testing.T) {
	r, err := NewRing(4, 32, 5)
	if err != nil {
		t.Fatal(err)
	}
	for _, victim := range []int{0, 1, 2} {
		r, err = r.WithoutServer(victim)
		if err != nil {
			t.Fatalf("remove %d: %v", victim, err)
		}
	}
	if r.Servers() != 1 {
		t.Fatalf("Servers() = %d after shrinking to one", r.Servers())
	}
	for key := uint64(0); key < 20000; key++ {
		if s := r.Server(key); s != 3 {
			t.Fatalf("key %d routed to %d; the sole survivor is 3", key, s)
		}
		if r.Server(key) != r.Server(key) {
			t.Fatalf("key %d: unstable routing on a one-server ring", key)
		}
	}
	if _, err := r.WithoutServer(3); err == nil {
		t.Fatal("removing the sole survivor must error, not empty the ring")
	}
	if _, err := r.WithoutServer(1); err == nil {
		t.Fatal("removing an already-departed id must error, not shrink the live count")
	}

	// Growth out of the degenerate state behaves like any other add.
	grown := r.WithServer()
	if grown.Servers() != 2 {
		t.Fatalf("Servers() = %d after growing back", grown.Servers())
	}
	saw := map[int]bool{}
	for key := uint64(0); key < 20000; key++ {
		s := grown.Server(key)
		if s != 3 && s != 4 {
			t.Fatalf("key %d routed to %d, want survivor 3 or joiner 4", key, s)
		}
		saw[s] = true
	}
	if !saw[3] || !saw[4] {
		t.Fatalf("two-server ring routed to only %v", saw)
	}
}

func TestWithoutServerErrors(t *testing.T) {
	r, _ := NewRing(2, 16, 1)
	if _, err := r.WithoutServer(5); err == nil {
		t.Fatal("unknown server must error")
	}
	one, _ := NewRing(1, 16, 1)
	if _, err := one.WithoutServer(0); err == nil {
		t.Fatal("removing the last server must error")
	}
}
