package engine

import (
	"sync"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/faults"
	"otacache/internal/flash"
)

// countingPolicy counts Contains calls.
type countingPolicy struct {
	cache.Policy
	contains int
}

func (p *countingPolicy) Contains(key uint64) bool {
	p.contains++
	return p.Policy.Contains(key)
}

// notifyStream is a seeded request stream over a small key universe
// with one fixed size per key, and its next-access index for Belady.
type notifyStream struct {
	keys []uint64
	next []int
}

const notifyUniverse = 400

func notifySize(key uint64) int64 { return int64(200 + (key*131)%2800) }

func newNotifyStream(seed uint64, n int) notifyStream {
	st := notifyStream{keys: make([]uint64, n), next: make([]int, n)}
	x := seed
	for i := range st.keys {
		x = x*6364136223846793005 + 1442695040888963407
		// Half the requests go to a hot tenth of the keys, so hits,
		// re-admissions and survivors in collected segments all occur.
		if (x>>20)&1 == 0 {
			st.keys[i] = (x >> 33) % (notifyUniverse / 10)
		} else {
			st.keys[i] = (x >> 33) % notifyUniverse
		}
	}
	last := map[uint64]int{}
	for i := n - 1; i >= 0; i-- {
		st.next[i] = -1
		if j, ok := last[st.keys[i]]; ok {
			st.next[i] = j
		}
		last[st.keys[i]] = i
	}
	return st
}

// TestFlashNotifiedStepIdentity replays one trace per policy and checks
// after every lookup that the store holds exactly the policy's
// residents: as many extents, and live bytes equal to the resident
// bytes. The greedy collector's victim choice depends only on those
// per-segment live counts, so exact counts at every step mean it picks
// from the true liveness. The store itself must never ask the policy
// anything. One arm runs the policy behind faults.Policy with some
// Gets and Admits dropped, so the wrapper must forward the callback.
func TestFlashNotifiedStepIdentity(t *testing.T) {
	// 1.3× overprovision leaves the collector room for every policy:
	// at 1.25× a full store drops a survivor now and then (Stats.Dropped),
	// which is a resident without an extent.
	const (
		capacity      = 64 << 10
		segment       = 8 << 10
		overprovision = 1.3
	)
	st := newNotifyStream(5, 20000)
	arms := map[string]func() cache.Policy{}
	for _, name := range cache.Names() {
		arms[name] = func() cache.Policy {
			pol, err := cache.New(name, capacity, st.next)
			if err != nil {
				t.Fatal(err)
			}
			return pol
		}
	}
	inj := faults.NewInjector(faults.Seeded(9, 0.05, faults.Fault{Kind: faults.Error}), nil)
	arms["faults-lru"] = func() cache.Policy { return faults.WrapPolicy(cache.NewLRU(capacity), inj) }
	for name, build := range arms {
		t.Run(name, func(t *testing.T) {
			counter := &countingPolicy{Policy: build()}
			e, err := New(counter, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := AttachFlash(e, segment, overprovision); err != nil {
				t.Fatal(err)
			}
			fs := e.Flash()
			for i, key := range st.keys {
				e.Lookup(key, notifySize(key), i, nil)
				if got, want := fs.Len(), counter.Len(); got != want {
					t.Fatalf("lookup %d: store holds %d extents, policy %d residents", i, got, want)
				}
				if got, want := fs.Stats().LiveBytes, counter.Used(); got != want {
					t.Fatalf("lookup %d: store has %d live bytes, policy %d resident bytes", i, got, want)
				}
			}
			// FIFO evicts in log order, so its victims die whole and
			// nothing relocates; every other policy leaves survivors.
			m := e.Snapshot()
			if m.FlashErases == 0 || (m.FlashGCBytes == 0 && name != "fifo") {
				t.Fatalf("trace drove %d erases and %d relocated bytes; the check needs both", m.FlashErases, m.FlashGCBytes)
			}
			if name == "faults-lru" && inj.Injected() == 0 {
				t.Fatal("the injector dropped nothing")
			}
			// The engine asks Contains once after each admission (every
			// miss, under admit-all); anything beyond that is the store.
			if want := int(m.Misses); counter.contains != want {
				t.Errorf("%d Contains calls, want %d (misses) — the store must make none", counter.contains, want)
			}
		})
	}
}

// TestFlashNotifiedQuiescentIdentity hammers a small, churn-heavy cache
// from several clients, some calling Lookup and some Offer directly
// (the /offer path), and checks ROADMAP item 4's identity once they
// stop: every extent in the store belongs to a policy resident, and the
// store's live bytes are exactly those extents. An eviction racing an
// admission's own write is what the engine's shard lock keeps out; a
// missed one would leave an extent no one ever reclaims.
func TestFlashNotifiedQuiescentIdentity(t *testing.T) {
	const (
		clients  = 6
		universe = 512
		requests = 4000
	)
	size := func(key uint64) int64 { return int64(64 + (key*37)%449) }
	for _, name := range []string{"s3lru", "arc"} {
		t.Run(name, func(t *testing.T) {
			pol, err := cache.NewSharded(16<<10, 2, func(c int64) cache.Policy {
				p, err := cache.New(name, c, nil)
				if err != nil {
					t.Fatal(err)
				}
				return p
			})
			if err != nil {
				t.Fatal(err)
			}
			e, err := New(pol, nil)
			if err != nil {
				t.Fatal(err)
			}
			if err := AttachFlash(e, 2<<10, 1.5); err != nil {
				t.Fatal(err)
			}
			fs := e.Flash()
			var wg sync.WaitGroup
			for c := 0; c < clients; c++ {
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					x := seed
					for i := 0; i < requests; i++ {
						x = x*6364136223846793005 + 1442695040888963407
						key := (x >> 33) % universe
						e.Lookup(key, size(key), e.NextTick(), nil)
					}
				}(uint64(c + 1))
				wg.Add(1)
				go func(seed uint64) {
					defer wg.Done()
					x := seed
					for i := 0; i < requests; i++ {
						x = x*6364136223846793005 + 1442695040888963407
						key := (x >> 33) % universe
						e.Offer(key, size(key), e.NextTick(), nil)
					}
				}(uint64(clients + c + 1))
			}
			wg.Wait()

			var extents int
			var bytes int64
			for key := uint64(0); key < universe; key++ {
				if !fs.Contains(key) {
					continue
				}
				extents++
				bytes += size(key)
				if !pol.Contains(key) {
					t.Errorf("key %d has an extent and is not resident", key)
				}
			}
			if got := fs.Len(); got != extents {
				t.Errorf("store indexes %d extents, %d of them for keys the clients sent", got, extents)
			}
			stats := fs.Stats()
			if stats.LiveBytes != bytes {
				t.Errorf("LiveBytes = %d, indexed extents add up to %d", stats.LiveBytes, bytes)
			}
			if stats.LiveBytes > pol.Used() {
				t.Errorf("LiveBytes = %d exceeds resident bytes %d", stats.LiveBytes, pol.Used())
			}
			if stats.Erases == 0 {
				t.Fatal("no collection ran; the stream is too light for this geometry")
			}
		})
	}
}

// TestAttachFlashSizesDeviceHook: the Device hook is told the segment
// count the store is built with, so a device made to that size has every
// block the log will reach. One segment short, the last block's first
// program fails out of range and good NAND is retired as bad.
func TestAttachFlashSizesDeviceHook(t *testing.T) {
	const segment = 1 << 10
	e, err := New(cache.NewLRU(10_000), nil)
	if err != nil {
		t.Fatal(err)
	}
	var told int
	err = AttachFlashOpts(e, FlashOptions{
		SegmentSize:   segment,
		Overprovision: 1.25, // 12500 bytes: twelve segments and a bit
		Device: func(_, segments int) flash.Device {
			told = segments
			return faults.WrapDevice(flash.NewMemDevice(segments), nil, nil, nil, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	st := e.Flash().Stats()
	if told != st.Segments || told != flash.SegmentCount(12500, segment) {
		t.Fatalf("hook told %d segments, store has %d, SegmentCount says %d", told, st.Segments, flash.SegmentCount(12500, segment))
	}
	// The slack beyond the policy's ten segments, counted in the same
	// whole segments the store has.
	if st.SpareBlocks != int64(st.Segments-10) {
		t.Fatalf("SpareBlocks = %d with %d segments over a 10-segment policy", st.SpareBlocks, st.Segments)
	}
	for i := uint64(0); i < 400; i++ {
		e.Lookup(i, 500, e.NextTick(), nil)
	}
	st = e.Flash().Stats()
	// The collector runs only once the free pool is empty, that is once
	// every segment has been the log head and taken a program.
	if st.Erases == 0 {
		t.Fatal("no collection ran; the writes did not reach every segment")
	}
	if st.RetiredBlocks != 0 || st.Dropped != 0 {
		t.Fatalf("healthy device retired %d blocks and dropped %d objects", st.RetiredBlocks, st.Dropped)
	}
}

// TestReattachFlashMovesTheCallback: attaching again must leave the
// first store deaf, not invalidated from a policy it no longer serves.
func TestReattachFlashMovesTheCallback(t *testing.T) {
	e, err := New(cache.NewLRU(1000), nil)
	if err != nil {
		t.Fatal(err)
	}
	attach := func() *flash.Store {
		if err := AttachFlash(e, 512, 2); err != nil {
			t.Fatal(err)
		}
		return e.Flash()
	}
	first := attach()
	for i := uint64(0); i < 10; i++ {
		e.Lookup(i, 100, e.NextTick(), nil)
	}
	held := first.Len()
	second := attach()
	for i := uint64(10); i < 40; i++ {
		e.Lookup(i, 100, e.NextTick(), nil)
	}
	if first.Len() != held {
		t.Fatalf("detached store went from %d to %d extents", held, first.Len())
	}
	if got, want := second.Len(), e.Policy().Len(); got != want {
		t.Fatalf("attached store holds %d extents, policy %d residents", got, want)
	}
}

// capPolicy reports a capacity the test sets, so one shard's store can
// be made unbuildable after a first attach succeeded.
type capPolicy struct {
	cache.Policy
	cap int64
}

func (p *capPolicy) Cap() int64 { return p.cap }

// TestFailedReattachKeepsStores: a re-attach that fails on a later shard
// must leave every shard with the store and callback it had, so each
// store still holds exactly its policy's residents.
func TestFailedReattachKeepsStores(t *testing.T) {
	last := &capPolicy{Policy: cache.NewLRU(1000), cap: 1000}
	shards := make([]*Engine, 3)
	for i := range shards {
		var pol cache.Policy = cache.NewLRU(1000)
		if i == len(shards)-1 {
			pol = last
		}
		e, err := New(pol, nil)
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = e
	}
	se, err := NewShardedEngine(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlash(se, 512, 2); err != nil {
		t.Fatal(err)
	}
	stores := make([]*flash.Store, len(shards))
	for i, sh := range shards {
		stores[i] = sh.Flash()
	}
	last.cap = 0 // the last shard's store now has no capacity to build
	if err := AttachFlash(se, 512, 2); err == nil {
		t.Fatal("re-attach over a zero-capacity policy succeeded")
	}
	for i := uint64(0); i < 200; i++ {
		se.Lookup(i, 100, se.NextTick(), nil)
	}
	for i, sh := range shards {
		if sh.Flash() != stores[i] {
			t.Errorf("shard %d: failed re-attach replaced its store", i)
		}
		if got, want := sh.Flash().Len(), sh.Policy().Len(); got != want {
			t.Errorf("shard %d: store holds %d extents, policy %d residents", i, got, want)
		}
	}
}
