package flash

import (
	"bytes"
	"errors"
	"testing"

	"otacache/internal/slab"
)

// scriptDev wraps the in-memory device with call-indexed failure
// hooks — the package-local stand-in for faults.Device (which lives
// above this package and can be imported only from its external tests).
type scriptDev struct {
	inner                            Device
	reads, programs, erases          int
	failRead, failProgram, failErase func(call int) bool
}

func newScriptDev(segments int) *scriptDev {
	return &scriptDev{inner: NewMemDevice(segments)}
}

func (d *scriptDev) Read(seg int, off int64, p []byte) error {
	call := d.reads
	d.reads++
	if d.failRead != nil && d.failRead(call) {
		return errors.New("scripted uncorrectable read")
	}
	return d.inner.Read(seg, off, p)
}

func (d *scriptDev) Program(seg int, off int64, p []byte) error {
	call := d.programs
	d.programs++
	if d.failProgram != nil && d.failProgram(call) {
		return errors.New("scripted program failure")
	}
	return d.inner.Program(seg, off, p)
}

func (d *scriptDev) Erase(seg int) error {
	call := d.erases
	d.erases++
	if d.failErase != nil && d.failErase(call) {
		return errors.New("scripted erase failure")
	}
	return d.inner.Erase(seg)
}

// extentLoc digs one live extent's physical placement out of the store
// so tests can corrupt the exact device bytes under it.
func extentLoc(t *testing.T, s *Store, key uint64) (seg int, physOff, physLen int64) {
	t.Helper()
	i := s.index.Lookup(key)
	if i == slab.Nil {
		t.Fatalf("key %d has no live extent", key)
	}
	e := s.index.Val(i)
	return int(e.seg), e.physOff, int64(e.physLen())
}

// corruptByte flips one payload byte of key's record directly in the
// in-memory device image — silent media corruption.
func corruptByte(t *testing.T, s *Store, md *memDevice, key uint64) {
	t.Helper()
	seg, off, _ := extentLoc(t, s, key)
	md.segs[seg][off+recHeaderSize] ^= 0x01
}

// TestCorruptExtentDetectedOnRead pins the checksum path: a flipped
// payload byte turns the read into ErrCorrupt, the extent is dropped
// (the retry sees a miss, never the corrupt bytes), and the corruption
// counter advances exactly once.
func TestCorruptExtentDetectedOnRead(t *testing.T) {
	md := NewMemDevice(8).(*memDevice)
	s, err := New(Config{SegmentSize: 1024, Capacity: 8 * 1024, Device: md})
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte("checksummed payload bytes")
	if err := s.Write(1, int64(len(payload)), payload); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, s, md, 1)
	if _, _, err := s.ReadExtent(1); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadExtent on corrupt bytes: err = %v, want ErrCorrupt", err)
	}
	if _, _, err := s.ReadExtent(1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("corrupt extent not dropped: second read err = %v, want ErrNotFound", err)
	}
	st := s.Stats()
	if st.CorruptExtents != 1 || st.ReadErrors != 0 {
		t.Fatalf("CorruptExtents = %d ReadErrors = %d, want 1, 0", st.CorruptExtents, st.ReadErrors)
	}
}

// TestUncorrectableReadDropsExtent pins the device-error path: a
// failed device read surfaces as ErrUncorrectable, drops the extent,
// and charges ReadErrors.
func TestUncorrectableReadDropsExtent(t *testing.T) {
	sd := newScriptDev(8)
	s, err := New(Config{SegmentSize: 1024, Capacity: 8 * 1024, Device: sd})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Write(1, 100, nil); err != nil {
		t.Fatal(err)
	}
	sd.failRead = func(call int) bool { return call == 0 }
	if _, _, err := s.ReadExtent(1); !errors.Is(err, ErrUncorrectable) {
		t.Fatalf("err = %v, want ErrUncorrectable", err)
	}
	if s.Contains(1) {
		t.Fatal("uncorrectable extent still indexed")
	}
	st := s.Stats()
	if st.ReadErrors != 1 || st.CorruptExtents != 0 {
		t.Fatalf("ReadErrors = %d CorruptExtents = %d, want 1, 0", st.ReadErrors, st.CorruptExtents)
	}
}

// TestProgramFailRetiresBlock pins bad-block retirement on the write
// path: the failed program retires the head segment, relocates the
// extents already on it, and lands the write on a fresh block — the
// caller never sees the failure.
func TestProgramFailRetiresBlock(t *testing.T) {
	sd := newScriptDev(8)
	s, err := New(Config{SegmentSize: 1024, Capacity: 8 * 1024, Device: sd, SpareBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	a := bytes.Repeat([]byte{0xAA}, 100)
	if err := s.Write(1, 100, a); err != nil {
		t.Fatal(err)
	}
	// The next program fails: block 0 (holding key 1) retires.
	sd.failProgram = func(call int) bool { return call == 1 }
	if err := s.Write(2, 100, bytes.Repeat([]byte{0xBB}, 100)); err != nil {
		t.Fatalf("write across a program failure must succeed: %v", err)
	}
	st := s.Stats()
	if st.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", st.RetiredBlocks)
	}
	if st.Relocations != 1 || st.GCBytes != 100 {
		t.Fatalf("survivor not relocated: Relocations = %d GCBytes = %d", st.Relocations, st.GCBytes)
	}
	for _, k := range []uint64{1, 2} {
		data, _, err := s.ReadExtent(k)
		if err != nil {
			t.Fatalf("key %d unreadable after retirement: %v", k, err)
		}
		want := byte(0xAA)
		if k == 2 {
			want = 0xBB
		}
		if data[0] != want {
			t.Fatalf("key %d payload corrupted across retirement", k)
		}
	}
	if st.Exhausted {
		t.Fatal("one retirement against 4 spares must not exhaust the device")
	}
}

// TestEraseFailRetiresBlock pins retirement on the collection path: a
// victim whose erase fails is retired (not returned to the free pool)
// and its already-stashed survivors still land on the log head.
func TestEraseFailRetiresBlock(t *testing.T) {
	sd := newScriptDev(4)
	s, err := New(Config{SegmentSize: 100, Capacity: 400, Device: sd, SpareBlocks: 3})
	if err != nil {
		t.Fatal(err)
	}
	sd.failErase = func(call int) bool { return call == 0 }
	// Overwrite churn through the whole device forces collection; the
	// first erase fails, retiring the victim mid-GC.
	for i := 0; i < 40; i++ {
		if err := s.Write(uint64(i%3), 60, nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	st := s.Stats()
	if st.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", st.RetiredBlocks)
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0 — erase-fail retirement must not lose objects", st.Dropped)
	}
	for k := uint64(0); k < 3; k++ {
		if !s.Contains(k) {
			t.Fatalf("key %d lost across erase-fail retirement", k)
		}
	}
}

// TestSpareExhaustion pins end-of-life semantics: the device reports
// Exhausted exactly when retirements consume the whole spare pool, and
// headroom counts down to zero on the way.
func TestSpareExhaustion(t *testing.T) {
	sd := newScriptDev(8)
	s, err := New(Config{SegmentSize: 100, Capacity: 800, Device: sd, SpareBlocks: 2})
	if err != nil {
		t.Fatal(err)
	}
	// One-shot trigger: arm before a write, and exactly the next program
	// fails (retirement relocations afterwards proceed cleanly).
	failNext := false
	sd.failProgram = func(call int) bool {
		f := failNext
		failNext = false
		return f
	}
	if err := s.Write(1, 50, nil); err != nil {
		t.Fatal(err)
	}
	if s.Exhausted() {
		t.Fatal("healthy store reports Exhausted")
	}
	if st := s.Stats(); st.SpareHeadroom != 2 {
		t.Fatalf("SpareHeadroom = %d, want 2", st.SpareHeadroom)
	}
	failNext = true
	if err := s.Write(2, 50, nil); err != nil {
		t.Fatal(err)
	}
	if s.Exhausted() {
		t.Fatal("one retirement against 2 spares must not exhaust")
	}
	if st := s.Stats(); st.SpareHeadroom != 1 {
		t.Fatalf("SpareHeadroom = %d, want 1", st.SpareHeadroom)
	}
	failNext = true
	if err := s.Write(3, 50, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Exhausted() {
		t.Fatal("spare pool empty but Exhausted is false")
	}
	st := s.Stats()
	if st.RetiredBlocks != 2 || st.SpareHeadroom != 0 || !st.Exhausted {
		t.Fatalf("stats at EOL: %+v", st)
	}
	// An exhausted store still serves what it holds.
	for _, k := range []uint64{1, 2, 3} {
		if !s.Contains(k) {
			t.Fatalf("key %d lost at EOL", k)
		}
	}
}

// TestScrubFindsCorruption pins the scrub loop's core: corruption
// planted in a sealed segment is found by ScrubStep and dropped via
// the invalidation path, while intact extents survive the pass.
func TestScrubFindsCorruption(t *testing.T) {
	md := NewMemDevice(8).(*memDevice)
	s, err := New(Config{SegmentSize: 200, Capacity: 1600, Device: md})
	if err != nil {
		t.Fatal(err)
	}
	// Fill a few segments so some seal.
	for k := uint64(0); k < 8; k++ {
		if err := s.Write(k, 100, bytes.Repeat([]byte{byte(k)}, 100)); err != nil {
			t.Fatal(err)
		}
	}
	// Corrupt key 2, which sits in a sealed segment (2 objects per
	// segment, head holds keys 6 and 7).
	corruptByte(t, s, md, 2)
	seenSegs := map[int]bool{}
	dropped := 0
	for i := 0; i < 16; i++ {
		seg, _, d := s.ScrubStep()
		if seg == -1 {
			break
		}
		if seenSegs[seg] {
			break // full lap
		}
		seenSegs[seg] = true
		dropped += d
	}
	if dropped != 1 {
		t.Fatalf("scrub dropped %d extents, want 1", dropped)
	}
	if s.Contains(2) {
		t.Fatal("scrub left the corrupt extent indexed")
	}
	st := s.Stats()
	if st.CorruptExtents != 1 {
		t.Fatalf("CorruptExtents = %d, want 1", st.CorruptExtents)
	}
	if st.ScrubbedSegments == 0 {
		t.Fatal("ScrubbedSegments did not advance")
	}
	// Every surviving extent still reads back intact.
	for k := uint64(0); k < 8; k++ {
		if k == 2 {
			continue
		}
		data, _, err := s.ReadExtent(k)
		if err != nil {
			t.Fatalf("key %d: %v", k, err)
		}
		if !bytes.Equal(data, bytes.Repeat([]byte{byte(k)}, 100)) {
			t.Fatalf("key %d payload damaged by scrub", k)
		}
	}
}

// TestGCDropsCorruptSurvivor pins that the collector never copies
// corruption forward: a corrupt survivor in a GC victim is dropped at
// relocation time and charged to CorruptExtents.
func TestGCDropsCorruptSurvivor(t *testing.T) {
	md := NewMemDevice(4).(*memDevice)
	s, err := New(Config{SegmentSize: 100, Capacity: 400, Device: md})
	if err != nil {
		t.Fatal(err)
	}
	// Key 1 sits alone in segment 0 with 50 live bytes; the unique
	// 60-byte keys after it make every other sealed segment more live,
	// so the first collection picks segment 0 and must try to relocate
	// the corrupt survivor.
	if err := s.Write(1, 50, bytes.Repeat([]byte{0xCC}, 50)); err != nil {
		t.Fatal(err)
	}
	corruptByte(t, s, md, 1)
	for i := 0; i < 4; i++ {
		if err := s.Write(uint64(100+i), 60, nil); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
	}
	if s.Contains(1) {
		t.Fatal("corrupt survivor relocated instead of dropped")
	}
	st := s.Stats()
	if st.CorruptExtents != 1 {
		t.Fatalf("CorruptExtents = %d, want 1", st.CorruptExtents)
	}
	for i := 0; i < 4; i++ {
		if !s.Contains(uint64(100 + i)) {
			t.Fatalf("live key %d lost in collection", 100+i)
		}
	}
}

// TestResetPreservesRetiredBlocks pins that a process restart does not
// heal bad NAND: retired blocks stay out of the free pool across
// Reset, and the retirement counters carry over.
func TestResetPreservesRetiredBlocks(t *testing.T) {
	sd := newScriptDev(8)
	s, err := New(Config{SegmentSize: 100, Capacity: 800, Device: sd, SpareBlocks: 4})
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	sd.failProgram = func(call int) bool {
		count++
		return count == 2
	}
	if err := s.Write(1, 50, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Write(2, 50, nil); err != nil {
		t.Fatal(err)
	}
	before := s.Stats()
	if before.RetiredBlocks != 1 {
		t.Fatalf("RetiredBlocks = %d, want 1", before.RetiredBlocks)
	}
	s.Reset()
	after := s.Stats()
	if after.RetiredBlocks != 1 {
		t.Fatalf("Reset changed RetiredBlocks: %d", after.RetiredBlocks)
	}
	// 8 segments, 1 retired, 1 active head: 6 free.
	if after.FreeSegments != after.Segments-2 {
		t.Fatalf("FreeSegments = %d, want %d (retired block must not rejoin)", after.FreeSegments, after.Segments-2)
	}
	// The store still works after the restart.
	if err := s.Write(3, 50, nil); err != nil {
		t.Fatal(err)
	}
	if !s.Contains(3) {
		t.Fatal("post-Reset write lost")
	}
}

// TestScrubStepRoundRobin pins the cursor: successive steps visit
// distinct sealed segments before lapping.
func TestScrubStepRoundRobin(t *testing.T) {
	s := newStore(t, 100, 800)
	for k := uint64(0); k < 6; k++ {
		if err := s.Write(k, 100, nil); err != nil {
			t.Fatal(err)
		}
	}
	first, _, _ := s.ScrubStep()
	second, _, _ := s.ScrubStep()
	if first == -1 || second == -1 {
		t.Fatalf("sealed segments exist but ScrubStep returned -1 (%d, %d)", first, second)
	}
	if first == second {
		t.Fatalf("cursor did not advance: scrubbed %d twice", first)
	}
}

// TestMemDeviceProgramAppends pins the in-memory device's image
// handling: appends at the write head keep what was programmed before,
// a program past the head leaves zeros (never a previous lap's bytes),
// and an erased block reads as empty.
func TestMemDeviceProgramAppends(t *testing.T) {
	d := NewMemDevice(2)
	var want []byte
	for i := 0; i < 200; i++ {
		rec := bytes.Repeat([]byte{byte(i + 1)}, 16+i%5)
		if err := d.Program(1, int64(len(want)), rec); err != nil {
			t.Fatal(err)
		}
		want = append(want, rec...)
	}
	got := make([]byte, len(want))
	if err := d.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("appended records do not read back")
	}
	if err := d.Erase(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Read(1, 0, got[:1]); err == nil {
		t.Fatal("read of an erased block succeeded")
	}
	if err := d.Program(1, 8, []byte{0xEE}); err != nil {
		t.Fatal(err)
	}
	got = got[:9]
	if err := d.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0, 0, 0, 0, 0, 0xEE}) {
		t.Fatalf("image after a program past the head of an erased block = %x", got)
	}
	// An overwrite in place (no store does this, the seam allows it).
	if err := d.Program(1, 7, []byte{1, 2, 3}); err != nil {
		t.Fatal(err)
	}
	got = got[:10]
	if err := d.Read(1, 0, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, []byte{0, 0, 0, 0, 0, 0, 0, 1, 2, 3}) {
		t.Fatalf("image after an overlapping program = %x", got)
	}
}
