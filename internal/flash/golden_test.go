package flash

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"hash/fnv"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// errKind folds an error into a small stable code for the digest.
func errKind(err error) int {
	for i, e := range []error{nil, ErrNotFound, ErrUncorrectable, ErrCorrupt, ErrOversize, ErrNoSpace} {
		if errors.Is(err, e) {
			return i
		}
	}
	return -1
}

// TestStoreChurnGolden pins the store's device behaviour: victim
// choice, relocation order, retirement, scrub and every counter. A
// seeded churn of writes (with and without payloads), invalidations,
// reads and scrub steps runs on a device whose reads, programs and
// erases fail at fixed call numbers, with one payload byte flipped
// and read back halfway. Stats, per-block erase counts, Len and every ReadExtent
// result (error kind and size) are folded into one FNV-64 digest,
// which testdata/churn.golden holds. Regenerate it with -update only
// for a deliberate change to what the device does.
func TestStoreChurnGolden(t *testing.T) {
	const (
		segments = 24
		keys     = 80
		ops      = 6000
	)
	sd := newScriptDev(segments)
	s, err := New(Config{SegmentSize: 512, Capacity: segments * 512, Device: sd, SpareBlocks: 5})
	if err != nil {
		t.Fatal(err)
	}
	sd.failRead = func(call int) bool { return call%173 == 91 }
	sd.failProgram = func(call int) bool { return call == 700 || call == 2900 }
	sd.failErase = func(call int) bool { return call == 40 || call == 300 }

	h := fnv.New64a()
	fold := func(v any) { fmt.Fprintf(h, "%v;", v) }
	snapshot := func() {
		fold(s.Stats())
		fold(s.ErasesPerSegment())
		fold(s.Len())
	}
	// want holds each key's last written payload (nil for extent-only
	// writes), so a successful read is also checked for its bytes.
	want := make([][]byte, keys)
	rng := uint64(0x5eed)
	flipped := false
	for i := range ops {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := (rng >> 33) % keys
		op := (rng >> 20) % 16
		switch {
		case op < 8:
			size := int64(24 + (rng>>40)%96)
			var data []byte
			if op%2 == 0 {
				data = bytes.Repeat([]byte{byte(i)}, int(size))
			}
			err := s.Write(key, size, data)
			fold(errKind(err))
			if err == nil {
				want[key] = data
			}
		case op < 10:
			fold(s.Invalidate(key))
		case op < 15:
			data, size, err := s.ReadExtent(key)
			fold(errKind(err))
			fold(size)
			if err == nil && !bytes.Equal(data, want[key]) {
				t.Fatalf("op %d: key %d read back wrong bytes", i, key)
			}
		default:
			seg, scanned, dropped := s.ScrubStep()
			fold([3]int{seg, scanned, dropped})
		}
		if !flipped && i >= ops/2 && want[key] != nil && s.Contains(key) {
			corruptByte(t, s, sd.inner.(*memDevice), key)
			flipped = true
			_, _, err := s.ReadExtent(key)
			fold(errKind(err))
		}
		if i%500 == 499 {
			snapshot()
		}
	}
	snapshot()
	if !flipped {
		t.Fatal("no payload extent was live to corrupt")
	}
	st := s.Stats()
	if st.Erases < 3*segments || st.Relocations == 0 || st.RetiredBlocks == 0 ||
		st.ReadErrors == 0 || st.CorruptExtents == 0 || st.ScrubbedSegments == 0 {
		t.Fatalf("churn did not reach every device path: %+v", st)
	}

	got := fmt.Sprintf("%016x\n", h.Sum64())
	path := filepath.Join("testdata", "churn.golden")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wantDigest, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(wantDigest) {
		t.Fatalf("churn digest %s, golden %s (final stats %+v)", strings.TrimSpace(got), strings.TrimSpace(string(wantDigest)), st)
	}
}
