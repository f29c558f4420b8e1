package flash

import (
	"fmt"
	"math"
	"testing"

	"otacache/internal/slab"
)

// CheckStore exposes checkStore to this package's external tests, which
// drive the store through faults.Device (a package that imports this
// one, so only an external test can use both).
var CheckStore = checkStore

// checkStore fails t unless the index and the segments describe the
// same flash contents (Flashield's invariant: the DRAM index is the one
// description of what is on the device):
//   - every index node in use names a position of a segment that is not
//     retired, and that position's list entry holds the node's own slot;
//   - a list entry reads live only when its node is in use;
//   - each segment's live count is the bytes of the entries that name
//     it, and those add up to Stats().LiveBytes;
//   - the victim array holds each sealed, unretired segment's live
//     bytes and math.MaxInt64 for every other segment.
func checkStore(t testing.TB, s *Store) {
	t.Helper()
	live, err := storeAgreement(s)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats().LiveBytes; got != live {
		t.Fatalf("Stats().LiveBytes = %d, segments hold %d live bytes", got, live)
	}
}

// storeAgreement checks checkStore's invariants and returns the live
// bytes the segments hold.
func storeAgreement(s *Store) (live int64, err error) {
	// A slot is in use exactly when its key's lookup lands on it: a freed
	// slot keeps the key it last held, which is then absent or elsewhere.
	inUse := func(i int32) bool { return s.index.Lookup(s.index.Key(i)) == i }
	entries := 0
	for i := int32(1); int(i) < len(s.index.Links()); i++ {
		if !inUse(i) {
			continue
		}
		entries++
		key, e := s.index.Key(i), s.index.Val(i)
		if e.seg < 0 || int(e.seg) >= len(s.segs) || e.slot < 0 || int(e.slot) >= len(s.segs[e.seg].slots) {
			return 0, fmt.Errorf("key %d: index names segment %d slot %d, which holds no record", key, e.seg, e.slot)
		}
		seg := &s.segs[e.seg]
		switch {
		case seg.retired:
			return 0, fmt.Errorf("key %d: index names retired segment %d", key, e.seg)
		case seg.slots[e.slot] != i:
			return 0, fmt.Errorf("key %d: index slot %d names segment %d slot %d, whose list entry holds index slot %d", key, i, e.seg, e.slot, seg.slots[e.slot])
		}
	}
	if entries != s.index.Len() {
		return 0, fmt.Errorf("index walk found %d entries, Len says %d", entries, s.index.Len())
	}
	for id := range s.segs {
		seg := &s.segs[id]
		var bytes int64
		for slot, ix := range seg.slots {
			e := s.index.Val(ix)
			if !e.names(id, slot) {
				continue
			}
			if !inUse(ix) {
				return 0, fmt.Errorf("segment %d slot %d: freed index slot %d still names it", id, slot, ix)
			}
			bytes += e.size()
		}
		if bytes != seg.live {
			return 0, fmt.Errorf("segment %d counts %d live bytes, the entries naming it hold %d", id, seg.live, bytes)
		}
		want := int64(math.MaxInt64)
		if seg.sealed && !seg.retired {
			want = seg.live
		}
		if s.victims[id] != want {
			return 0, fmt.Errorf("segment %d: victim array holds %d, want %d (sealed %v, retired %v, live %d)", id, s.victims[id], want, seg.sealed, seg.retired, seg.live)
		}
		live += bytes
	}
	return live, nil
}

// TestEraseFailSurvivorsMoveOnce pins the in-flight mark: a collection
// whose erase fails retires the victim, and the retirement must not
// stash the survivors the pass already staged, so each moves exactly
// once. The layout is scripted so the counters are known:
//   - six segments of 100 bytes and records of 10, filled in order, so
//     segment 0 holds keys 1–10, segment 1 keys 11–20, …, and the host
//     head, segment 5, keys 51–54 with 60 bytes free;
//   - keys 1–8 and 11–17 are invalidated, leaving 2 survivors on
//     segment 0 and 3 on segment 1;
//   - a 70-byte write rolls the head. The pass on segment 0 fails its
//     erase, and its 2 survivors go to the host head's room, the only
//     room there is. The next pass, on segment 1, erases it and moves 3
//     more there, and the write opens segment 1 as the host head.
func TestEraseFailSurvivorsMoveOnce(t *testing.T) {
	const size = 10
	sd := newScriptDev(6)
	s, err := New(Config{SegmentSize: 100, Capacity: 600, Device: sd, SpareBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	for k := uint64(1); k <= 54; k++ {
		if err := s.Write(k, size, nil); err != nil {
			t.Fatalf("Write(%d): %v", k, err)
		}
	}
	for k := uint64(1); k <= 17; k++ {
		if k <= 8 || k >= 11 {
			s.Invalidate(k)
		}
	}
	checkStore(t, s)
	if st := s.Stats(); st.FreeSegments != 0 || st.Erases != 0 || s.heads[classHost] != 5 {
		t.Fatalf("setup: %d free segments, %d erases, host head %d; want 0, 0, 5", st.FreeSegments, st.Erases, s.heads[classHost])
	}
	sd.failErase = func(call int) bool { return call == 0 }
	if err := s.Write(100, 70, nil); err != nil {
		t.Fatal(err)
	}
	checkStore(t, s)
	st := s.Stats()
	if st.RetiredBlocks != 1 || st.Erases != 1 || st.Dropped != 0 {
		t.Fatalf("RetiredBlocks %d, Erases %d, Dropped %d; want 1, 1, 0", st.RetiredBlocks, st.Erases, st.Dropped)
	}
	if st.Relocations != 5 || st.GCBytes != 5*size {
		t.Errorf("Relocations %d, GCBytes %d; want 5, %d: each survivor moves once", st.Relocations, st.GCBytes, 5*size)
	}
	// Keys 9, 10, 18–54 and 100.
	if s.Len() != 2+37+1 {
		t.Errorf("Len = %d, want %d", s.Len(), 2+37+1)
	}
	for _, k := range []uint64{9, 10, 18, 19, 20} {
		i := s.index.Lookup(k)
		if i == slab.Nil {
			t.Fatalf("survivor %d lost", k)
		}
		if seg := s.index.Val(i).seg; seg != 5 {
			t.Errorf("survivor %d is on segment %d, want the old host head, 5", k, seg)
		}
	}
}
