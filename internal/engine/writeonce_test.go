package engine

import (
	"sync"
	"sync/atomic"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/faults"
	"otacache/internal/flash"
)

// TestConcurrentMissesWriteOnce pins that a write is counted once per
// insertion, however many requests miss the key together. Four clients
// each look up the same 200 000 keys in order on a storeless 4-stripe
// LRU that never evicts, so every key is inserted exactly once: Writes,
// WriteBytes and the clients' Written outcomes must all describe the
// resident set. A request that counted its admission after another
// request had already inserted the key (a phantom write) breaks it.
func TestConcurrentMissesWriteOnce(t *testing.T) {
	const (
		clients = 4
		keys    = 200_000
		size    = 64
	)
	pol, err := cache.NewSharded(1<<40, 4, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	e, err := New(pol, nil)
	if err != nil {
		t.Fatal(err)
	}
	var written atomic.Int64
	var wg sync.WaitGroup
	for range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var n int64
			for key := uint64(0); key < keys; key++ {
				if e.Lookup(key, size, e.NextTick(), nil).Written {
					n++
				}
			}
			written.Add(n)
		}()
	}
	wg.Wait()

	m := e.Snapshot()
	if got := pol.Len(); got != keys {
		t.Fatalf("%d residents, want %d (the policy must never evict here)", got, keys)
	}
	if m.Writes != keys || written.Load() != keys {
		t.Errorf("Writes = %d and %d Written outcomes for %d insertions", m.Writes, written.Load(), keys)
	}
	if m.WriteBytes != pol.Used() {
		t.Errorf("WriteBytes = %d, resident bytes %d", m.WriteBytes, pol.Used())
	}
	if m.Requests != clients*keys || m.Hits+m.Misses != m.Requests {
		t.Errorf("requests %d = hits %d + misses %d, want %d requests", m.Requests, m.Hits, m.Misses, clients*keys)
	}
}

// departures counts the residents a policy stripe lets go: its
// evictions, through whatever eviction callback is installed (none, or
// a flash store's Invalidate), and its removals. Stripes of one
// cache.Sharded share the counters and run under different locks, so
// they are atomic.
type departures struct {
	evictions, removals atomic.Int64
}

// wrap returns p with its departures counted into d.
func (d *departures) wrap(p cache.Policy) cache.Policy {
	w := &departing{Policy: p, d: d}
	w.SetEvictNotify(nil)
	return w
}

type departing struct {
	cache.Policy
	d *departures
}

// SetEvictNotify implements cache.Policy, counting each eviction before
// fn sees it.
func (w *departing) SetEvictNotify(fn func(key uint64)) {
	w.Policy.SetEvictNotify(func(key uint64) {
		w.d.evictions.Add(1)
		if fn != nil {
			fn(key)
		}
	})
}

// Remove implements cache.Remover.
func (w *departing) Remove(key uint64) bool {
	r, ok := w.Policy.(cache.Remover)
	if ok && r.Remove(key) {
		w.d.removals.Add(1)
		return true
	}
	return false
}

// TestWritesQuiescentIdentity pins the write counter against the
// resident set once traffic stops: every counted write is a resident,
// or left by an eviction or a removal, so Writes == Len + evictions +
// removals. It runs on a bare policy (one client), on cache.Sharded
// stripes (four clients, no store) and on a flash shard whose device
// fails some reads (four clients; each failed read removes a resident),
// for every online policy.
func TestWritesQuiescentIdentity(t *testing.T) {
	const (
		universe = 3000
		requests = 6000
		capacity = 48 << 10
	)
	size := func(key uint64) int64 { return int64(64 + (key*37)%449) }
	// striped is a 4-stripe cache.Sharded whose stripes count their
	// departures into d.
	striped := func(t *testing.T, d *departures, newPolicy func(int64) cache.Policy) *cache.Sharded {
		t.Helper()
		pol, err := cache.NewSharded(capacity, 4, func(c int64) cache.Policy { return d.wrap(newPolicy(c)) })
		if err != nil {
			t.Fatal(err)
		}
		return pol
	}
	arms := []struct {
		name    string
		clients int
		build   func(t *testing.T, d *departures, newPolicy func(int64) cache.Policy) *Engine
	}{
		{"storeless", 1, func(t *testing.T, d *departures, newPolicy func(int64) cache.Policy) *Engine {
			return mustEngine(t, d.wrap(newPolicy(capacity)))
		}},
		{"striped", 4, func(t *testing.T, d *departures, newPolicy func(int64) cache.Policy) *Engine {
			return mustEngine(t, striped(t, d, newPolicy))
		}},
		{"flash", 4, func(t *testing.T, d *departures, newPolicy func(int64) cache.Policy) *Engine {
			e := mustEngine(t, striped(t, d, newPolicy))
			reads := faults.NewInjector(faults.Seeded(3, 0.02, faults.Fault{Kind: faults.Error}), nil)
			if err := AttachFlashOpts(e, FlashOptions{
				SegmentSize:   4 << 10,
				Overprovision: 1.5,
				Device: func(_, segments int) flash.Device {
					return faults.WrapDevice(flash.NewMemDevice(segments), reads, nil, nil, nil)
				},
			}); err != nil {
				t.Fatal(err)
			}
			return e
		}},
	}
	for _, arm := range arms {
		for _, name := range cache.Names() {
			if name == "belady" {
				continue // offline: it needs the whole trace's next accesses
			}
			t.Run(arm.name+"/"+name, func(t *testing.T) {
				newPolicy := func(c int64) cache.Policy {
					p, err := cache.New(name, c, nil)
					if err != nil {
						t.Fatal(err)
					}
					return p
				}
				var d departures
				e := arm.build(t, &d, newPolicy)
				var wg sync.WaitGroup
				for c := range arm.clients {
					wg.Add(1)
					go func(x uint64) {
						defer wg.Done()
						for range requests {
							x = x*6364136223846793005 + 1442695040888963407
							// A hot tenth of the keys takes half the requests.
							key := (x >> 33) % universe
							if (x>>20)&1 == 0 {
								key %= universe / 10
							}
							e.Lookup(key, size(key), e.NextTick(), nil)
						}
					}(uint64(c + 1))
				}
				wg.Wait()

				m := e.Snapshot()
				evictions, removals := d.evictions.Load(), d.removals.Load()
				resident := int64(e.Policy().Len())
				if m.Writes != resident+evictions+removals {
					t.Fatalf("Writes = %d, residents %d + evictions %d + removals %d = %d",
						m.Writes, resident, evictions, removals, resident+evictions+removals)
				}
				if evictions == 0 {
					t.Fatal("no evictions: the identity is not exercised")
				}
				if arm.name == "flash" && (removals == 0 || m.FlashReadErrors == 0) {
					t.Fatalf("flash arm removed %d residents on %d read errors; the faults must remove some",
						removals, m.FlashReadErrors)
				}
			})
		}
	}
}

func mustEngine(t *testing.T, p cache.Policy) *Engine {
	t.Helper()
	e, err := New(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
