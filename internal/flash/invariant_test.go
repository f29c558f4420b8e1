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
//   - every index entry names a live obj with the same key, in a
//     segment that is not retired;
//   - every live obj is the one its key's index entry names, and the
//     index slot it remembers is that entry's;
//   - each segment's live count is the bytes of its live objs, and
//     those add up to Stats().LiveBytes;
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
	entries := 0
	for i := int32(1); int(i) < len(s.index.Links()); i++ {
		key := s.index.Key(i)
		if s.index.Lookup(key) != i {
			continue
		}
		entries++
		l := *s.index.Val(i)
		if l.seg < 0 || int(l.seg) >= len(s.segs) || l.slot < 0 || int(l.slot) >= len(s.segs[l.seg].objs) {
			return 0, fmt.Errorf("key %d: index names segment %d slot %d, which holds no obj", key, l.seg, l.slot)
		}
		seg := &s.segs[l.seg]
		o := &seg.objs[l.slot]
		switch {
		case seg.retired:
			return 0, fmt.Errorf("key %d: index names retired segment %d", key, l.seg)
		case o.dead:
			return 0, fmt.Errorf("key %d: index names dead obj at segment %d slot %d", key, l.seg, l.slot)
		case o.key != key:
			return 0, fmt.Errorf("key %d: index names segment %d slot %d, which holds key %d", key, l.seg, l.slot, o.key)
		}
	}
	if entries != s.index.Len() {
		return 0, fmt.Errorf("index walk found %d entries, Len says %d", entries, s.index.Len())
	}
	for id := range s.segs {
		seg := &s.segs[id]
		var bytes int64
		for slot := range seg.objs {
			o := &seg.objs[slot]
			if o.dead {
				continue
			}
			bytes += int64(o.size)
			i := s.index.Lookup(o.key)
			if i == slab.Nil || *s.index.Val(i) != (loc{seg: int32(id), slot: int32(slot)}) {
				return 0, fmt.Errorf("segment %d slot %d: live obj for key %d is not where the index says", id, slot, o.key)
			}
			if o.ix != i {
				return 0, fmt.Errorf("segment %d slot %d: live obj for key %d remembers index slot %d, the index has it at %d", id, slot, o.key, o.ix, i)
			}
		}
		if bytes != seg.live {
			return 0, fmt.Errorf("segment %d counts %d live bytes, its live objs hold %d", id, seg.live, bytes)
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
