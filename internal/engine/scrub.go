package engine

import (
	"fmt"
	"sync/atomic"
	"time"

	"otacache/internal/cache"
	"otacache/internal/faults"
	"otacache/internal/flash"
)

// Scrubber patrols the shards' flash stores in the background, one
// sealed segment per shard per interval, so latent media corruption
// (a bit rotting under a cold object) is found and dropped by the
// store's checksum pass before a client read ever sees it. Paired with
// the engine's degrade-to-miss read path it closes the fault domain:
// every corrupt extent is either scrubbed away or converted to a miss —
// never served.
//
// The cadence deliberately trickles: a full device pass takes
// (segments × interval) per shard, which is the standard patrol-read
// trade — steady verification load instead of read-burst interference
// with serving traffic.
type Scrubber struct {
	srv      Server
	interval time.Duration
	clock    faults.Clock

	segments atomic.Int64 // segments scanned by this scrubber
	dropped  atomic.Int64 // corrupt/unreadable extents dropped

	stop chan struct{}
	done chan struct{}
}

// NewScrubber builds a scrubber over srv's shards. interval is the
// per-step cadence (one segment per shard per step); clock supplies the
// sleep — the daemon passes faults.WallClock, tests either call Step
// directly or run the loop on a short real interval. A nil clock means
// WallClock. Note a FakeClock makes the loop spin (its Sleep returns
// immediately); fake-clock tests should drive Step themselves.
func NewScrubber(srv Server, interval time.Duration, clock faults.Clock) (*Scrubber, error) {
	if srv == nil {
		return nil, fmt.Errorf("engine: NewScrubber on nil server")
	}
	if interval <= 0 {
		return nil, fmt.Errorf("engine: scrub interval must be positive (got %v)", interval)
	}
	if clock == nil {
		clock = faults.WallClock{}
	}
	return &Scrubber{
		srv:      srv,
		interval: interval,
		clock:    clock,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}, nil
}

// Step advances every shard's scrub cursor by one sealed segment,
// returning how many segments were scanned (shards with no flash store
// or nothing sealed contribute zero) and how many extents were dropped
// as unreadable or corrupt. Safe to call concurrently with traffic:
// each shard's step runs under that shard's engine lock (the store
// takes none of its own), one shard at a time, so a step stalls a
// shard's requests for one segment's scrub.
func (sc *Scrubber) Step() (segments, dropped int) {
	for _, sh := range sc.srv.Shards() {
		seg, drop := -1, 0
		sh.WithFlash(func(_ cache.Policy, fs *flash.Store) {
			if fs != nil {
				seg, _, drop = fs.ScrubStep()
			}
		})
		if seg < 0 {
			continue
		}
		segments++
		dropped += drop
	}
	sc.segments.Add(int64(segments))
	sc.dropped.Add(int64(dropped))
	return segments, dropped
}

// Segments returns how many segments this scrubber has scanned.
func (sc *Scrubber) Segments() int64 { return sc.segments.Load() }

// Dropped returns how many extents this scrubber's passes have dropped.
func (sc *Scrubber) Dropped() int64 { return sc.dropped.Load() }

// Start launches the background loop. Call at most once.
func (sc *Scrubber) Start() { go sc.run() }

// Stop signals the loop to exit. It does not wait out a sleep already
// in progress: the goroutine finishes its nap, observes the signal, and
// exits without another step — fine for daemon shutdown, where the
// process outlives the scrubber by milliseconds, and for tests, which
// use short intervals.
func (sc *Scrubber) Stop() { close(sc.stop) }

// Done is closed when the loop has exited.
func (sc *Scrubber) Done() <-chan struct{} { return sc.done }

func (sc *Scrubber) run() {
	defer close(sc.done)
	for {
		sc.clock.Sleep(sc.interval)
		select {
		case <-sc.stop:
			return
		default:
		}
		sc.Step()
	}
}
