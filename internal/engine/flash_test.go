package engine

import (
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/flash"
)

func TestAttachFlashValidates(t *testing.T) {
	if err := AttachFlash(nil, 1024, 1.25); err == nil {
		t.Fatal("nil server accepted")
	}
	e, err := New(cache.NewLRU(1<<16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlash(e, 1024, 1.0); err == nil {
		t.Fatal("overprovision 1.0 accepted; the collector would have no slack")
	}
	if err := AttachFlash(e, 0, 1.25); err == nil {
		t.Fatal("zero segment size accepted")
	}
	if e.Flash() != nil {
		t.Fatal("failed attach left a store behind")
	}
	if err := AttachFlash(e, 1024, 1.25); err != nil {
		t.Fatal(err)
	}
	fs := e.Flash()
	if fs == nil {
		t.Fatal("no store attached")
	}
	// Capacity = policy cap x overprovision, rounded up to segments.
	if got, want := fs.Capacity(), int64(float64(1<<16)*1.25); got < want {
		t.Fatalf("flash capacity = %d, want >= %d", got, want)
	}
}

// TestOfferWritesToFlash pins the admission->device wiring: accepted
// admissions land in the store, bypassed ones do not, and the Flash*
// metrics mirror the store's counters.
func TestOfferWritesToFlash(t *testing.T) {
	e, err := New(cache.NewLRU(1<<16), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlash(e, 4096, 1.25); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		e.Lookup(i, 100, e.NextTick(), nil)
	}
	m := e.Snapshot()
	if m.FlashHostBytes != m.WriteBytes || m.FlashHostBytes != 1000 {
		t.Fatalf("FlashHostBytes = %d, WriteBytes = %d; admitted bytes must land on the device", m.FlashHostBytes, m.WriteBytes)
	}
	if !e.Flash().Contains(3) {
		t.Fatal("admitted key missing from flash")
	}
	// A hit is not a device write.
	e.Lookup(3, 100, e.NextTick(), nil)
	if m := e.Snapshot(); m.FlashHostBytes != 1000 {
		t.Fatalf("hit charged the device: FlashHostBytes = %d", m.FlashHostBytes)
	}
}

// TestOfferBypassSkipsFlash drives a filter that rejects everything:
// the whole point of admission control is that bypassed objects never
// cost device writes.
func TestOfferBypassSkipsFlash(t *testing.T) {
	e, err := New(cache.NewLRU(1<<16), rejectAll{})
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlash(e, 4096, 1.25); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 10; i++ {
		e.Lookup(i, 100, e.NextTick(), nil)
	}
	m := e.Snapshot()
	if m.Bypassed != 10 {
		t.Fatalf("Bypassed = %d, want 10", m.Bypassed)
	}
	if m.FlashHostBytes != 0 || e.Flash().Len() != 0 {
		t.Fatalf("bypassed objects reached the device: %+v", m)
	}
	if m.FlashWAF() != 1 {
		t.Fatalf("FlashWAF = %g on an unwritten device, want 1", m.FlashWAF())
	}
}

type rejectAll struct{}

func (rejectAll) Name() string { return "rejectall" }
func (rejectAll) Decide(key uint64, tick int, feat []float64) core.Decision {
	return core.Decision{}
}

// TestPolicyEvictionInvalidates pins the wiring AttachFlash builds:
// once the policy evicts a key its extent is garbage, dropped at the
// eviction itself, so the collector never relocates it.
func TestPolicyEvictionInvalidates(t *testing.T) {
	t.Run("notified", func(t *testing.T) {
		// A tiny policy (2 x 100-byte residents) under heavy unique-key
		// traffic: nearly every admission evicts a predecessor.
		e, err := New(cache.NewLRU(200), nil)
		if err != nil {
			t.Fatal(err)
		}
		if err := AttachFlash(e, 256, 4); err != nil {
			t.Fatal(err)
		}
		for i := uint64(0); i < 500; i++ {
			e.Lookup(i, 100, e.NextTick(), nil)
		}
		m := e.Snapshot()
		if m.FlashHostBytes != 500*100 {
			t.Fatalf("FlashHostBytes = %d, want 50000", m.FlashHostBytes)
		}
		// Evicted extents are garbage, not survivors: amplification stays
		// near the floor even though the device saw 50x its capacity.
		if w := m.FlashWAF(); w > 1.2 {
			t.Fatalf("FlashWAF = %g; evicted extents must not relocate", w)
		}
		if got, want := e.Flash().Len(), e.Policy().Len(); got != want {
			t.Fatalf("flash index holds %d extents, policy holds %d residents", got, want)
		}
	})
}

// TestRebuildFlash pins the restart path: Reset + Restore re-materialize
// exactly the policy's residents without charging host writes or erases.
func TestRebuildFlash(t *testing.T) {
	e, err := New(cache.NewLRU(1<<12), nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlash(e, 1024, 1.5); err != nil {
		t.Fatal(err)
	}
	for i := uint64(0); i < 200; i++ {
		e.Lookup(i%40, 100, e.NextTick(), nil)
	}
	before := e.Snapshot()
	RebuildFlash(e)
	after := e.Snapshot()
	if after.FlashHostBytes != before.FlashHostBytes {
		t.Fatalf("rebuild charged host bytes: %d -> %d", before.FlashHostBytes, after.FlashHostBytes)
	}
	if after.FlashErases != before.FlashErases {
		t.Fatalf("rebuild charged erases: %d -> %d", before.FlashErases, after.FlashErases)
	}
	if got, want := e.Flash().Len(), e.Policy().Len(); got != want {
		t.Fatalf("rebuilt flash holds %d extents, policy holds %d residents", got, want)
	}
	// Rebuild is idempotent and survives a detached shard.
	RebuildFlash(e)
	var bare Engine
	RebuildFlash(&bare) // no store attached: must not panic
}

// TestShardedAttachFlash checks per-shard stores: each shard gets its
// own device sized off its own policy, and the sharded Snapshot sums
// their wear.
func TestShardedAttachFlash(t *testing.T) {
	se := newTestSharded(t, 3, 1<<14)
	if err := AttachFlash(se, 1024, 1.25); err != nil {
		t.Fatal(err)
	}
	stores := map[*flash.Store]bool{}
	for _, sh := range se.Shards() {
		fs := sh.Flash()
		if fs == nil {
			t.Fatal("shard missing its store")
		}
		stores[fs] = true
	}
	if len(stores) != 3 {
		t.Fatalf("%d distinct stores for 3 shards", len(stores))
	}
	for i := uint64(0); i < 300; i++ {
		se.Lookup(i, 64, se.NextTick(), nil)
	}
	var sum int64
	for _, sh := range se.Shards() {
		sum += sh.Snapshot().FlashHostBytes
	}
	if m := se.Snapshot(); m.FlashHostBytes != sum || sum == 0 {
		t.Fatalf("aggregate FlashHostBytes = %d, shard sum = %d", m.FlashHostBytes, sum)
	}
}
