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
	if n := len(r.points); n != 4*64 {
		t.Fatalf("vnodes 0 built %d points, want the default 64 per server", n)
	}
	for key := uint64(0); key < 1000; key++ {
		if s := r.Server(key); s < 0 || s >= 4 {
			t.Fatalf("key %d routed to server %d of 4", key, s)
		}
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
