package engine

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/flash"
)

// ownerUniverse keys of ownerSize bytes churn a 16 KiB policy about
// nine times over, so admissions evict and the collector runs.
const ownerUniverse = 512

func ownerSize(key uint64) int64 { return int64(64 + (key*37)%449) }

// newStripedFlash builds the daemon's flash shard in small: a two-stripe
// LRU over filter with a store of 1 KiB segments attached.
func newStripedFlash(t *testing.T, filter core.Filter) *Engine {
	t.Helper()
	pol, err := cache.NewSharded(16<<10, 2, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(pol, filter)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlash(e, 1<<10, 1.5); err != nil {
		t.Fatal(err)
	}
	return e
}

// ownerClient sends n lookups over the owner universe from seed, then
// keeps going until more returns false.
func ownerClient(e *Engine, seed uint64, n int, more func() bool) {
	x := seed
	for i := 0; i < n || more(); i++ {
		x = x*6364136223846793005 + 1442695040888963407
		key := (x >> 33) % ownerUniverse
		e.Lookup(key, ownerSize(key), e.NextTick(), nil)
	}
}

// TestConcurrentScrubAndWrites runs the scrub patrol, Snapshot and the
// residency readers against live Lookup traffic on a flash shard — the
// interleaving the daemon's background Scrubber and /metrics scrapes
// produce. The store takes no lock of its own, so every one of them
// must go through the shard lock; the race matrix runs this under
// -race at several GOMAXPROCS. The invariant checks pin that a scrub
// pass racing a collection or an eviction never drops a healthy extent
// or drives the accounting below zero, and that the store still holds
// exactly the policy's residents once traffic stops. The clients keep
// going past perClient until the scrubber has completed a step, so the
// progress check waits on the scrubber, not on how the scheduler
// happens to interleave the goroutines.
func TestConcurrentScrubAndWrites(t *testing.T) {
	e := newStripedFlash(t, nil)
	sc, err := NewScrubber(e, time.Millisecond, nil)
	if err != nil {
		t.Fatal(err)
	}
	const clients, perClient = 4, 2000
	var scrubbed atomic.Bool
	deadline := time.Now().Add(30 * time.Second)
	more := func() bool {
		if time.Now().After(deadline) {
			t.Error("scrubber completed no step within 30s of live traffic")
			return false
		}
		return !scrubbed.Load()
	}
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ownerClient(e, uint64(c+1), perClient, more)
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	readers.Add(2)
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if seg, _ := sc.Step(); seg > 0 {
				scrubbed.Store(true)
			}
		}
	}()
	go func() {
		defer readers.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			_ = e.Snapshot()
			e.WithFlash(func(p cache.Policy, fs *flash.Store) {
				if fs.Len() > p.Len() || fs.Stats().LiveBytes > p.Used() {
					t.Errorf("store holds %d extents (%d bytes), policy %d residents (%d bytes)",
						fs.Len(), fs.Stats().LiveBytes, p.Len(), p.Used())
				}
			})
		}
	}()
	wg.Wait()
	close(stop)
	readers.Wait()

	st := e.Flash().Stats()
	if sc.Segments() == 0 || st.ScrubbedSegments == 0 {
		t.Fatalf("scrub made no progress against live traffic: %d steps, %+v", sc.Segments(), st)
	}
	// A healthy device: nothing may be dropped, by the scrub or anyone.
	if st.CorruptExtents != 0 || st.ReadErrors != 0 || st.Dropped != 0 || sc.Dropped() != 0 {
		t.Fatalf("healthy device lost extents: scrub dropped %d, %+v", sc.Dropped(), st)
	}
	if st.Erases == 0 {
		t.Fatal("no collection ran; the stream is too light for this geometry")
	}
	if st.LiveBytes < 0 || st.WAF() < 1 {
		t.Fatalf("accounting out of range: LiveBytes %d, WAF %g", st.LiveBytes, st.WAF())
	}
	pol := e.Policy()
	if got, want := e.Flash().Len(), pol.Len(); got != want {
		t.Fatalf("store holds %d extents, policy %d residents", got, want)
	}
	if got, want := st.LiveBytes, pol.Used(); got != want {
		t.Fatalf("store has %d live bytes, policy %d resident bytes", got, want)
	}
}

// TestFlashSnapshotIsOneCut snapshots a flash shard while four clients
// drive it. The engine counters and the store's mirrors are read under
// the shard lock every request holds, so each snapshot is one cut: no
// request is half counted, and the store never holds an extent the
// policy has let go. Reading the counters without the lock, as Snapshot
// did before it took the shard lock, fails this test in every run, most
// often on requests != hits + misses within the first ten thousand
// snapshots.
func TestFlashSnapshotIsOneCut(t *testing.T) {
	e := newStripedFlash(t, oddBypass{})
	const clients, perClient = 4, 3000
	var wg sync.WaitGroup
	for c := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ownerClient(e, uint64(c+1), perClient, func() bool { return false })
		}()
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	for snapshots, running := 0, true; running; snapshots++ {
		select {
		case <-done:
			running = false
		default:
		}
		m := e.Snapshot()
		if m.Requests != m.Hits+m.Misses {
			t.Fatalf("snapshot %d: requests %d != hits %d + misses %d", snapshots, m.Requests, m.Hits, m.Misses)
		}
		if m.Writes+m.Bypassed > m.Misses {
			t.Fatalf("snapshot %d: writes %d + bypassed %d > misses %d", snapshots, m.Writes, m.Bypassed, m.Misses)
		}
		e.WithFlash(func(p cache.Policy, fs *flash.Store) {
			if fs.Len() > p.Len() {
				t.Fatalf("snapshot %d: store holds %d extents, policy %d residents", snapshots, fs.Len(), p.Len())
			}
		})
	}
	if m := e.Snapshot(); m.Requests != clients*perClient || m.Bypassed == 0 || m.FlashErases == 0 {
		t.Fatalf("traffic too light: %+v", m)
	}
}
