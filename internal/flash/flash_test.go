package flash

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
	"unsafe"
)

func newStore(t testing.TB, segSize, capacity int64) *Store {
	t.Helper()
	s, err := New(Config{SegmentSize: segSize, Capacity: capacity})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{SegmentSize: 0, Capacity: 100}); err == nil {
		t.Fatal("zero segment size must be rejected")
	}
	if _, err := New(Config{SegmentSize: 100, Capacity: 0}); err == nil {
		t.Fatal("zero capacity must be rejected")
	}
	// An index entry holds an extent's size in 32 bits.
	if _, err := New(Config{SegmentSize: maxSegmentSize + 1, Capacity: 1}); err == nil {
		t.Fatal("a segment whose records overflow 32 bits must be rejected")
	}
	if _, err := New(Config{SegmentSize: maxSegmentSize, Capacity: 1}); err != nil {
		t.Fatalf("the largest segment size is rejected: %v", err)
	}
	// Capacity rounds up to whole segments with a floor the collector
	// can operate in.
	s := newStore(t, 100, 150)
	if got := s.Capacity(); got != int64(minSegments)*100 {
		t.Fatalf("capacity = %d, want %d", got, minSegments*100)
	}
	s = newStore(t, 100, 950)
	if got := s.Capacity(); got != 1000 {
		t.Fatalf("capacity = %d, want 1000 (rounded up)", got)
	}
}

// TestIndexEntrySize pins the index entry, the only description of a
// live extent, at 24 bytes, so its index node (the key and the entry,
// as slab lays them out) is 32: half a cache line, which a hit reads.
func TestIndexEntrySize(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 24 {
		t.Fatalf("entry is %d bytes, want 24", got)
	}
	if got := unsafe.Sizeof(struct {
		key uint64
		val entry
	}{}); got != 32 {
		t.Fatalf("an index node is %d bytes, want 32", got)
	}
}

func TestWriteReadRoundTrip(t *testing.T) {
	s := newStore(t, 1024, 8192)
	payload := []byte("the quick brown fox")
	if err := s.Write(7, int64(len(payload)), payload); err != nil {
		t.Fatalf("write rejected: %v", err)
	}
	data, size, err := s.ReadExtent(7)
	if err != nil || size != int64(len(payload)) || !bytes.Equal(data, payload) {
		t.Fatalf("ReadExtent = %q, %d, %v; want the payload back", data, size, err)
	}
	// Extent-only writes read back a nil payload with the right size.
	if err := s.Write(8, 300, nil); err != nil {
		t.Fatalf("extent-only write rejected: %v", err)
	}
	data, size, err = s.ReadExtent(8)
	if err != nil || size != 300 || data != nil {
		t.Fatalf("extent-only ReadExtent = %v, %d, %v; want nil, 300, nil", data, size, err)
	}
	if s.Contains(99) {
		t.Fatal("Contains(99) on an absent key")
	}
	if s.Len() != 2 {
		t.Fatalf("Len = %d, want 2", s.Len())
	}
}

func TestWriteRejectsOversizeAndNonPositive(t *testing.T) {
	s := newStore(t, 100, 1000)
	if err := s.Write(1, 101, nil); !errors.Is(err, ErrOversize) {
		t.Fatalf("oversize write: err = %v, want ErrOversize", err)
	}
	if err := s.Write(2, 0, nil); !errors.Is(err, ErrOversize) {
		t.Fatalf("zero-size write: err = %v, want ErrOversize", err)
	}
	if err := s.Write(3, 50, []byte("xx")); err == nil {
		t.Fatal("data/size mismatch accepted")
	}
	st := s.Stats()
	if st.Oversize != 2 {
		t.Fatalf("Oversize = %d, want 2", st.Oversize)
	}
	if st.HostBytes != 0 {
		t.Fatalf("HostBytes = %d, want 0 after only rejected writes", st.HostBytes)
	}
	if st.WAF() != 1 {
		t.Fatalf("WAF of an unwritten store = %g, want 1", st.WAF())
	}
}

// TestOverwriteInvalidates pins that rewriting a key kills the old
// extent: live bytes reflect only the newest copy.
func TestOverwriteInvalidates(t *testing.T) {
	s := newStore(t, 100, 1000)
	s.Write(1, 60, nil)
	s.Write(1, 40, nil)
	st := s.Stats()
	if st.LiveBytes != 40 {
		t.Fatalf("LiveBytes = %d, want 40 (old extent dead)", st.LiveBytes)
	}
	if st.HostBytes != 100 {
		t.Fatalf("HostBytes = %d, want 100 (both writes charged)", st.HostBytes)
	}
	if !s.Invalidate(1) {
		t.Fatal("Invalidate(1) found nothing")
	}
	if s.Invalidate(1) {
		t.Fatal("double Invalidate reported presence")
	}
	if st := s.Stats(); st.LiveBytes != 0 {
		t.Fatalf("LiveBytes = %d after invalidation, want 0", st.LiveBytes)
	}
}

// TestGCReclaimsDeadSegments drives the log over its capacity with
// overwrites so collection must kick in, and checks the accounting
// identity the WAF measurement rests on.
func TestGCReclaimsDeadSegments(t *testing.T) {
	s := newStore(t, 100, 1000) // 10 segments
	// Working set of 4 keys x 50 bytes = 200 live bytes; write each key
	// 50 times = 10000 host bytes through a 1000-byte device.
	for round := 0; round < 50; round++ {
		for k := uint64(0); k < 4; k++ {
			if err := s.Write(k, 50, nil); err != nil {
				t.Fatalf("round %d key %d: write failed: %v", round, k, err)
			}
		}
	}
	st := s.Stats()
	if st.HostBytes != 10000 {
		t.Fatalf("HostBytes = %d, want 10000", st.HostBytes)
	}
	if st.Erases == 0 {
		t.Fatal("no erases after 10x overwrite of the whole device")
	}
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d, want 0", st.Dropped)
	}
	if st.LiveBytes != 200 {
		t.Fatalf("LiveBytes = %d, want 200", st.LiveBytes)
	}
	for k := uint64(0); k < 4; k++ {
		if !s.Contains(k) {
			t.Fatalf("key %d lost across collections", k)
		}
	}
	if w := st.WAF(); w < 1 {
		t.Fatalf("WAF = %g < 1", w)
	}
	// With every old extent dead at collection time, victims are pure
	// garbage: relocation (and thus amplification) should stay tiny.
	if w := st.WAF(); w > 1.2 {
		t.Fatalf("WAF = %g for an all-dead overwrite workload, want ~1", w)
	}
}

// TestGCPicksLowestLiveness pins the greedy victim choice: a segment
// full of dead extents is erased before one full of live data, so live
// objects in cold segments survive collection untouched.
func TestGCPicksLowestLiveness(t *testing.T) {
	s := newStore(t, 100, 400) // 4 segments
	// Segment 0: two live 50-byte objects (never overwritten).
	s.Write(1, 50, nil)
	s.Write(2, 50, nil)
	// Segment 1: two objects that immediately die by overwrite into
	// segment 2.
	s.Write(3, 50, nil)
	s.Write(4, 50, nil)
	s.Write(3, 50, nil)
	s.Write(4, 50, nil)
	// Filling segment 3 forces a roll that needs collection; the all-dead
	// segment 1 must be the victim — zero relocations.
	s.Write(5, 100, nil)
	s.Write(6, 100, nil)
	st := s.Stats()
	if st.Erases != 1 {
		t.Fatalf("Erases = %d, want exactly 1", st.Erases)
	}
	if st.GCBytes != 0 {
		t.Fatalf("GCBytes = %d, want 0 (victim was all dead)", st.GCBytes)
	}
	for _, k := range []uint64{1, 2, 3, 4, 5, 6} {
		if !s.Contains(k) {
			t.Fatalf("key %d lost", k)
		}
	}
}

// TestRelocationPreservesPayloads drives payload-carrying writes
// through enough churn to force relocations and checks every surviving
// object reads back intact. The key sequence is pseudo-random so
// liveness scatters across segments — a strictly cyclic overwrite
// pattern leaves victims fully dead and never relocates.
func TestRelocationPreservesPayloads(t *testing.T) {
	s := newStore(t, 256, 1024)
	content := func(k uint64, gen int) []byte {
		return bytes.Repeat([]byte{byte(k), byte(gen)}, 32)
	}
	gen := map[uint64]int{}
	rng := uint64(1)
	for round := 0; round < 120; round++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		k := (rng >> 33) % 7
		gen[k]++
		if err := s.Write(k, 64, content(k, gen[k])); err != nil {
			t.Fatalf("round %d: write failed: %v", round, err)
		}
	}
	st := s.Stats()
	if st.Relocations == 0 {
		t.Fatal("workload never relocated; test lost its point")
	}
	for k := uint64(0); k < 7; k++ {
		if gen[k] == 0 {
			continue
		}
		data, size, err := s.ReadExtent(k)
		if err != nil || size != 64 {
			t.Fatalf("key %d: ReadExtent err=%v size=%d", k, err, size)
		}
		if !bytes.Equal(data, content(k, gen[k])) {
			t.Fatalf("key %d: payload corrupted across relocation", k)
		}
	}
}

// TestRestoreDoesNotChargeHostWrites pins the snapshot-rebuild
// contract: Restore re-materializes residency without touching the
// host-byte counter, the WAF, or the erase counters.
func TestRestoreDoesNotChargeHostWrites(t *testing.T) {
	s := newStore(t, 100, 1000)
	for k := uint64(0); k < 8; k++ {
		if err := s.Restore(k, 50); err != nil {
			t.Fatalf("Restore(%d) failed: %v", k, err)
		}
	}
	st := s.Stats()
	if st.HostBytes != 0 || st.GCBytes != 0 || st.Erases != 0 {
		t.Fatalf("Restore charged wear counters: %+v", st)
	}
	if st.LiveBytes != 400 {
		t.Fatalf("LiveBytes = %d, want 400", st.LiveBytes)
	}
	if st.WAF() != 1 {
		t.Fatalf("WAF = %g, want 1", st.WAF())
	}
	// Subsequent host traffic is charged normally.
	s.Write(100, 50, nil)
	if st := s.Stats(); st.HostBytes != 50 {
		t.Fatalf("HostBytes = %d after one host write, want 50", st.HostBytes)
	}
}

// TestResetClearsDataKeepsWear pins Reset's restart semantics: data
// and index gone, cumulative wear counters intact, no phantom erases.
func TestResetClearsDataKeepsWear(t *testing.T) {
	s := newStore(t, 100, 400)
	for i := 0; i < 40; i++ {
		s.Write(uint64(i%3), 60, nil)
	}
	before := s.Stats()
	if before.Erases == 0 {
		t.Fatal("workload produced no erases; test lost its point")
	}
	s.Reset()
	after := s.Stats()
	if after.LiveBytes != 0 || s.Len() != 0 {
		t.Fatal("Reset left live data behind")
	}
	if after.FreeSegments != after.Segments-1 {
		t.Fatalf("FreeSegments = %d, want %d (all but the head)", after.FreeSegments, after.Segments-1)
	}
	if after.HostBytes != before.HostBytes || after.GCBytes != before.GCBytes || after.Erases != before.Erases {
		t.Fatalf("Reset changed wear counters: before %+v after %+v", before, after)
	}
}

// TestErasesPerSegment checks the per-block histogram sums to the
// total and stays roughly leveled under a uniform overwrite workload
// (greedy victim choice over uniform death is naturally rotating).
func TestErasesPerSegment(t *testing.T) {
	s := newStore(t, 100, 800)
	for i := 0; i < 400; i++ {
		s.Write(uint64(i%5), 50, nil)
	}
	per := s.ErasesPerSegment()
	var sum int64
	for _, e := range per {
		sum += e
	}
	st := s.Stats()
	if sum != st.Erases {
		t.Fatalf("per-segment erases sum to %d, total says %d", sum, st.Erases)
	}
	if st.MaxSegmentErases < st.MinSegmentErases {
		t.Fatalf("min/max erases inverted: %+v", st)
	}
}

// TestWAFRisesWithUtilization pins the device physics the subsystem
// exists to measure: the same workload through a store with less
// overprovisioned slack must amplify more (victims are more live, so
// the collector relocates more per erase).
func TestWAFRisesWithUtilization(t *testing.T) {
	run := func(capacity int64) float64 {
		s := newStore(t, 100, capacity)
		// 16 keys x 50 bytes = 800 live bytes, overwritten in a
		// pseudo-random order so segment liveness scatters.
		rng := uint64(9)
		for i := 0; i < 800; i++ {
			rng = rng*6364136223846793005 + 1442695040888963407
			if err := s.Write((rng>>33)%16, 50, nil); err != nil {
				t.Fatalf("capacity %d: write %d failed: %v", capacity, i, err)
			}
		}
		return s.Stats().WAF()
	}
	tight, roomy := run(1200), run(2400)
	if tight <= roomy {
		t.Fatalf("WAF(tight)=%g <= WAF(roomy)=%g; amplification must rise with utilization", tight, roomy)
	}
}

// TestDeterministicReplay pins that the same write sequence yields
// bit-identical wear counters — the property every WAF-comparison test
// in the serving stack relies on.
func TestDeterministicReplay(t *testing.T) {
	run := func() Stats {
		s := newStore(t, 128, 1024)
		for i := 0; i < 500; i++ {
			s.Write(uint64(i*7%23), int64(20+i%60), nil)
		}
		return s.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("replay diverged:\n a: %+v\n b: %+v", a, b)
	}
}

// TestConcurrentWriters hammers one store from many goroutines, each
// call serialized by a caller-held mutex as the Store contract asks
// (the engine's shard lock in the daemon), and checks the counters
// still satisfy the accounting invariants under any interleaving of
// writes, invalidations, reads and stats reads. The race matrix runs
// this under -race at several GOMAXPROCS, which also pins that the
// store keeps no shared state the caller's lock does not cover.
func TestConcurrentWriters(t *testing.T) {
	s := newStore(t, 1024, 64*1024)
	var mu sync.Mutex
	const workers = 8
	const perWorker = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				k := uint64(w*31+i) % 97
				mu.Lock()
				if i%17 == 0 {
					s.Invalidate(k)
					mu.Unlock()
					continue
				}
				s.Write(k, int64(64+(i%8)*32), nil)
				if i%5 == 0 {
					s.ReadExtent(k)
					s.Stats()
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	st := s.Stats()
	if st.Dropped != 0 {
		t.Fatalf("Dropped = %d under concurrency, want 0", st.Dropped)
	}
	if st.LiveBytes < 0 {
		t.Fatalf("LiveBytes went negative: %+v", st)
	}
	if st.WAF() < 1 {
		t.Fatalf("WAF = %g < 1", st.WAF())
	}
	if s.Len() > 97 {
		t.Fatalf("index holds %d keys, only 97 distinct ever written", s.Len())
	}
}

// TestConcurrentScrubAndWrites runs the scrub patrol against live
// write/read/invalidate traffic — the interleaving the background
// Scrubber produces in the daemon — with every call serialized by a
// caller-held mutex, as the engine's shard lock does there. The race
// matrix runs this under -race at several GOMAXPROCS; the invariant
// checks pin that a scrub step landing between a GC and an overwrite
// never drops a healthy extent's accounting below zero or strands the
// cursor. The writers keep going past perWorker until the scrubber has
// completed a step, so the progress check waits on the scrubber, not on
// how the scheduler happens to interleave the goroutines.
func TestConcurrentScrubAndWrites(t *testing.T) {
	s := newStore(t, 1024, 64*1024)
	var mu sync.Mutex
	const workers = 4
	const perWorker = 2000
	var wg sync.WaitGroup
	stop := make(chan struct{})
	firstScrub := make(chan struct{})
	scrubDone := make(chan int, 1)
	go func() {
		scrubbed := 0
		for {
			select {
			case <-stop:
				scrubDone <- scrubbed
				return
			default:
			}
			mu.Lock()
			seg, _, _ := s.ScrubStep()
			mu.Unlock()
			if seg >= 0 {
				if scrubbed == 0 {
					close(firstScrub)
				}
				scrubbed++
			}
		}
	}()
	deadline := time.Now().Add(30 * time.Second)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; ; i++ {
				if i >= perWorker {
					select {
					case <-firstScrub:
						return
					default:
					}
					if time.Now().After(deadline) {
						t.Error("scrubber completed no step within 30s of live traffic")
						return
					}
				}
				k := uint64(w*31+i) % 97
				mu.Lock()
				if i%17 == 0 {
					s.Invalidate(k)
					mu.Unlock()
					continue
				}
				s.Write(k, int64(64+(i%8)*32), nil)
				if i%5 == 0 {
					s.ReadExtent(k)
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	close(stop)
	scrubbed := <-scrubDone
	st := s.Stats()
	if scrubbed == 0 || st.ScrubbedSegments == 0 {
		t.Fatalf("scrub made no progress against live traffic: %d steps, %+v", scrubbed, st)
	}
	// A healthy device: the scrub must never have dropped anything.
	if st.CorruptExtents != 0 || st.ReadErrors != 0 {
		t.Fatalf("scrub dropped healthy extents: %+v", st)
	}
	if st.LiveBytes < 0 {
		t.Fatalf("LiveBytes went negative: %+v", st)
	}
}

func TestStatsString(t *testing.T) {
	// Smoke: Stats is a plain value; fmt must render it without
	// tripping any accessor.
	s := newStore(t, 100, 400)
	s.Write(1, 50, nil)
	_ = fmt.Sprintf("%+v", s.Stats())
}
