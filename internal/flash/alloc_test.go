package flash

import (
	"testing"
	"unsafe"
)

// TestStoreSteadyStateAllocs pins the store's steady state at zero
// allocations. Once the index, each segment's extent list and device
// image, and the collector's staging buffers have grown to their
// working size, writes, invalidations and reads allocate nothing, and
// neither do the collection passes and erases they trigger.
//
// testing.AllocsPerRun divides the mallocs by the runs as integers, so
// a path that allocates on one call in ten reads as 0. Each run here is
// 1 000 operations: any rate of 0.001 allocations per operation or
// more fails.
//
// The Payloads subtest writes payload bytes, so relocations stage them
// too; it drives no reads, because ReadExtent returns a copy of the
// payload by contract.
func TestStoreSteadyStateAllocs(t *testing.T) {
	const (
		segSize  = 4096
		segments = 16
		keys     = 256
		size     = 128 // a fixed size fixes the extents per lap
		batch    = 1000
		runs     = 20
	)
	for _, payloads := range []bool{false, true} {
		name := "Extents"
		if payloads {
			name = "Payloads"
		}
		t.Run(name, func(t *testing.T) {
			s := newStore(t, segSize, segments*segSize)
			var data []byte
			if payloads {
				data = make([]byte, size)
			}
			rng := uint64(1)
			ops := func() {
				for range batch {
					rng = rng*6364136223846793005 + 1442695040888963407
					key := (rng >> 33) % keys
					switch op := (rng >> 20) % 10; {
					case op < 6:
						if err := s.Write(key, size, data); err != nil {
							t.Fatalf("Write(%d): %v", key, err)
						}
					case op < 8 || payloads:
						s.Invalidate(key)
					default:
						if _, _, err := s.ReadExtent(key); err != nil && err != ErrNotFound {
							t.Fatalf("ReadExtent(%d): %v", key, err)
						}
					}
				}
			}
			for k := range uint64(keys) {
				if err := s.Write(k, size, data); err != nil {
					t.Fatal(err)
				}
			}
			for range 10 {
				ops()
			}
			before := s.Stats()
			if n := testing.AllocsPerRun(runs, ops); n != 0 {
				t.Errorf("%d operations allocate %.0f times, want 0", batch, n)
			}
			after := s.Stats()
			if laps := (after.Erases - before.Erases) / segments; laps < 3 {
				t.Errorf("measured runs made %d erase laps, want at least 3", laps)
			}
			if after.Relocations == before.Relocations {
				t.Error("no collection pass relocated a survivor")
			}
		})
	}
}

// TestStoreFootprint pins the store's metadata per live extent at the
// serving geometry (servingChurn, settled): the index's slices and the
// segments' slot lists, each counted as capacity times element size.
// It reads the store's own slices, not the runtime's heap statistics,
// so it holds under -race too. It reads 82.5 bytes per live extent
// (8 812 extents: a 672 kB index of 32-byte nodes, 8-byte links and
// 8-byte buckets, and 55 kB of 4-byte slot lists).
func TestStoreFootprint(t *testing.T) {
	const maxPerExtent = 90
	c := newServingChurn(t)
	c.settle(t)
	s := c.s
	index, lists := s.index.Footprint(), 0
	for i := range s.segs {
		lists += cap(s.segs[i].slots) * int(unsafe.Sizeof(int32(0)))
	}
	perExtent := float64(index+lists) / float64(s.Len())
	t.Logf("%d live extents: index %d B, slot lists %d B, %.1f B per extent", s.Len(), index, lists, perExtent)
	if perExtent > maxPerExtent {
		t.Errorf("store metadata is %.1f bytes per live extent, want at most %d", perExtent, maxPerExtent)
	}
}
