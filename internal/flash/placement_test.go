package flash

import (
	"encoding/binary"
	"fmt"
	"slices"
	"testing"

	"otacache/internal/slab"
)

// placementDev checks every program and erase against the store's state
// at that moment: the store calls its device under mu, from the
// goroutine that holds it, so the device may read the store's fields.
type placementDev struct {
	inner Device
	s     *Store
	err   error // the first placement fault seen
	// writing is the key of the host Write in flight, or -1.
	writing int64
	// victimClass is the class of the segment last erased: the victim of
	// the collection pass whose survivors are being programmed. Read at
	// the erase, because relocation may reopen the erased block as a head
	// of another class.
	victim      int
	victimClass uint8
	// staged holds the index slots on the last erased segment's list
	// whose entries were in flight at the erase: its survivors.
	staged []int32
	// host, moved and fallback count programs of host writes, of
	// survivors into their implied class, and of appends that took the
	// fallback.
	host     int
	moved    [numClasses]int
	fallback int
}

func (d *placementDev) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf(format, args...)
	}
}

func (d *placementDev) Read(seg int, off int64, p []byte) error { return d.inner.Read(seg, off, p) }

func (d *placementDev) Erase(seg int) error {
	s := d.s
	if slices.Contains(s.heads[:], seg) {
		d.fail("collection erased open head %d (heads %v)", seg, s.heads)
	}
	d.victim, d.victimClass = seg, s.segs[seg].class
	d.staged = d.staged[:0]
	for _, ix := range s.segs[seg].slots {
		if s.index.Val(ix).seg < 0 {
			d.staged = append(d.staged, ix)
		}
	}
	return d.inner.Erase(seg)
}

func (d *placementDev) Program(seg int, off int64, p []byte) error {
	s := d.s
	key := binary.LittleEndian.Uint64(p[0:8])
	size := int64(binary.LittleEndian.Uint64(p[8:16]))
	if !slices.Contains(s.heads[:], seg) {
		d.fail("key %d programmed into segment %d, which is no open head (heads %v)", key, seg, s.heads)
	}
	switch i := s.index.Lookup(key); {
	case i != slab.Nil:
		// Only a collection survivor is still indexed while it is
		// appended: its entry is in flight, staged off the victim.
		if s.index.Val(i).seg >= 0 || !slices.Contains(d.staged, i) {
			d.fail("key %d relocated in index slot %d (segment %d), which the last erase, of %d, did not stage", key, i, s.index.Val(i).seg, d.victim)
		}
		want := survivorClass(d.victimClass)
		if seg == s.heads[want] {
			d.moved[want]++
			return d.inner.Program(seg, off, p)
		}
		// The fallback: the implied head had no room, and at most the
		// last free segment was left, which the write that ran the
		// collector needs.
		d.fallback++
		if h := s.heads[want]; len(s.free) > 1 || (h >= 0 && !s.segs[h].retired && s.segs[h].used+size <= s.segSize) {
			d.fail("survivor %d of a class-%d victim landed in class %d with %d free segments (heads %v)",
				key, d.victimClass, s.segs[seg].class, len(s.free), s.heads)
		}
	case int64(key) == d.writing:
		d.host++
		if c := s.segs[seg].class; c != classHost {
			d.fallback++
			if len(s.free) > 0 {
				d.fail("host write %d landed in a class-%d segment with %d free segments", key, c, len(s.free))
			}
		}
	}
	return d.inner.Program(seg, off, p)
}

// TestPlacementClasses drives a skewed churn (most writes go to a few
// hot keys, so long-lived cold keys survive pass after pass) and checks
// the placement rules on every program and erase:
//   - a host write goes to the host head unless no segment was free;
//   - a survivor goes to the head its victim's class implies (host →
//     first-time survivors, survivors → repeat survivors) unless that
//     head is full and no segment beyond the last was free (the write
//     that ran the collector needs the last one);
//   - an open head is never erased (a stalled head is closed before the
//     collector takes it) or scrubbed.
//
// The index and segments must agree after every operation, and no write
// may fail or drop an extent. The small geometry has fewer segments than
// the heads and the collector want, so its appends take the fallback;
// there, a stalled head left open would starve the collector and fail
// writes with ErrNoSpace.
func TestPlacementClasses(t *testing.T) {
	for _, g := range []struct {
		segments, segSize int64
		keys              uint64
		wantFallback      bool
	}{{32, 1024, 200, false}, {minSegments, 512, 24, true}} {
		t.Run(fmt.Sprintf("%dx%d", g.segments, g.segSize), func(t *testing.T) {
			dev := &placementDev{inner: NewMemDevice(int(g.segments)), writing: -1}
			s, err := New(Config{SegmentSize: g.segSize, Capacity: g.segments * g.segSize, Device: dev})
			if err != nil {
				t.Fatal(err)
			}
			dev.s = s
			rng := uint64(7)
			for i := range 20000 {
				rng = rng*6364136223846793005 + 1442695040888963407
				key := (rng >> 33) % (g.keys / 8) // hot
				if (rng>>20)%10 == 0 {
					key = (rng >> 33) % g.keys // cold, now and then
				}
				switch op := (rng >> 12) % 20; {
				case op < 17:
					dev.writing = int64(key)
					err := s.Write(key, int64(24+(rng>>40)%48), nil)
					dev.writing = -1
					if err != nil {
						t.Fatalf("op %d: Write(%d): %v", i, key, err)
					}
				case op < 19:
					s.Invalidate(key)
				default:
					id, _, _ := s.ScrubStep()
					if id >= 0 && slices.Contains(s.heads[:], id) {
						t.Fatalf("op %d: scrubbed open head %d (heads %v)", i, id, s.heads)
					}
				}
				if dev.err != nil {
					t.Fatalf("op %d: %v", i, dev.err)
				}
				checkStore(t, s)
			}
			st := s.Stats()
			if st.Dropped != 0 {
				t.Fatalf("Dropped = %d, want 0", st.Dropped)
			}
			if dev.host == 0 || dev.moved[classSurvivor] == 0 || dev.moved[classRepeat] == 0 {
				t.Fatalf("churn did not reach every class: %d host, %v survivor programs", dev.host, dev.moved)
			}
			if g.wantFallback && dev.fallback == 0 {
				t.Fatal("no append took the fallback; the geometry lost its point")
			}
			t.Logf("%d host, %v survivor programs, %d fallbacks, WAF %.3f", dev.host, dev.moved, dev.fallback, st.WAF())
		})
	}
}
