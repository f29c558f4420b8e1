package server

import (
	"strings"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/faults"
	"otacache/internal/flash"
)

// newChaosSharded builds an n-shard engine over concurrency-safe LRUs
// sized so the chaos workload never evicts: every fault the drill
// observes is then an injected media fault, not policy churn.
func newChaosSharded(t *testing.T, n int, perShard int64) *engine.ShardedEngine {
	t.Helper()
	shards := make([]*engine.Engine, n)
	for i := range shards {
		pol, err := cache.NewSharded(perShard, 2, func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			t.Fatal(err)
		}
		shards[i], err = engine.New(pol, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	se, err := engine.NewShardedEngine(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// TestE2EChaosMediaFaults is the flash fault-domain drill end to end:
// a client replays a workload over HTTP while the shard devices inject
// uncorrectable reads, silent bit flips, and program failures. The
// contract under fire:
//
//   - zero 5xx — every injected media fault degrades to a cache miss,
//     never a serving error (the client runs with retries disabled so a
//     single 5xx fails the test rather than being absorbed);
//   - no corrupt extent is ever served — a checksum mismatch drops the
//     extent and the request reports a miss;
//   - hit-rate degradation is bounded: each injected fault costs at
//     most one miss;
//   - after a full scrub sweep, the /metrics flash counters equal
//     the injected-fault multiset exactly. Fault kinds are split across
//     shards (shard 0 read errors; shard 1 flips + program failures) so
//     no fault can mask another: a read error on a flipped record would
//     drop it before the checksum could see the flip.
//
// Erase-fault injection needs GC pressure and is exercised at the flash
// layer (internal/flash); the workload here is sized to stay below the
// collection threshold so the read/flip call indexes are deterministic.
func TestE2EChaosMediaFaults(t *testing.T) {
	const (
		numKeys = 2000
		objSize = 256
	)
	se := newChaosSharded(t, 2, 1<<20)

	readInj := faults.NewInjector(faults.EveryNth(23, faults.Fault{Kind: faults.Error}), nil)
	flipInj := faults.NewInjector(faults.EveryNth(31, faults.Fault{Kind: faults.Error}), nil)
	progInj := faults.NewInjector(faults.After(300, faults.FailN(2, faults.Fault{Kind: faults.Error})), nil)
	devs := make([]*faults.Device, 2)
	err := engine.AttachFlashOpts(se, engine.FlashOptions{
		SegmentSize:   4096,
		Overprovision: 1.5,
		Device: func(shard, segments int) flash.Device {
			inner := flash.NewMemDevice(segments)
			if shard == 0 {
				devs[0] = faults.WrapDevice(inner, readInj, nil, nil, nil)
			} else {
				devs[1] = faults.WrapDevice(inner, nil, progInj, nil, flipInj)
			}
			return devs[shard]
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	srv := New(se, Config{})
	hs := serveTest(t, srv)
	c := NewClient(hs.URL, 2)
	// One attempt per request: a 5xx fails the Lookup instead of being
	// retried away, so "zero 5xx under media faults" is measured honestly.
	c.SetRetry(RetryConfig{MaxAttempts: 1})

	// Pass 1: admit a unique key set. All misses; flips and the two
	// program failures land here (each failed program retires one block,
	// relocating whatever live extents it held).
	for key := uint64(0); key < numKeys; key++ {
		res, err := c.Lookup(key, objSize, nil)
		if err != nil {
			t.Fatalf("pass 1 key %d: request failed (5xx or transport): %v", key, err)
		}
		if res.Hit {
			t.Fatalf("pass 1 key %d: unique key hit", key)
		}
	}
	base, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := base.Sample("ota_flash_waf", -1); !ok {
		t.Fatal("/metrics has no flash families with stores attached")
	}

	// Pass 2: re-read every key. Healthy extents hit; injected read
	// errors and pass-1 flips degrade to misses.
	hits, degraded := 0, 0
	for key := uint64(0); key < numKeys; key++ {
		res, err := c.Lookup(key, objSize, nil)
		if err != nil {
			t.Fatalf("pass 2 key %d: request failed (5xx or transport): %v", key, err)
		}
		if res.Hit {
			hits++
		} else {
			degraded++
		}
	}
	if hits < numKeys*9/10 {
		t.Fatalf("hit-rate degradation unbounded: %d/%d hits", hits, numKeys)
	}
	mid, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	// Every pass-2 miss is exactly one media-fault discovery: the keys
	// are all resident, so only a degraded read can miss. (Keys whose
	// extents were already dropped in pass 1 — a flip discovered while
	// relocating off a retired block — hit without an extent: absence is
	// not a media fault.)
	pass := mid.Cumulative.Sub(base.Cumulative)
	passRE, passCE := pass.FlashReadErrors, pass.FlashCorruptExtents
	if int64(degraded) != passRE+passCE {
		t.Fatalf("pass-2 misses %d != faults discovered in pass 2 (%d read errors + %d corrupt)",
			degraded, passRE, passCE)
	}
	if passRE == 0 || passCE == 0 {
		t.Fatalf("drill injected nothing in pass 2: %d read errors, %d corrupt", passRE, passCE)
	}

	// Full scrub sweep: walk every segment of every shard so each
	// remaining latent flip is verified and dropped. (Scrub reads on
	// shard 0 keep drawing the read injector — the counters must still
	// match the injected totals afterward.)
	totalSegments, spareBlocks := int64(0), int64(0)
	for _, sh := range se.Shards() {
		fs := sh.Flash()
		n := fs.Stats().Segments
		totalSegments += int64(n)
		spareBlocks += fs.Stats().SpareBlocks
		for id := 0; id < n; id++ {
			fs.ScrubSegment(id)
		}
	}

	fin, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	h := fin.Cumulative
	wantReads := int64(devs[0].InjectedReads() + devs[1].InjectedReads())
	wantFlips := int64(devs[0].InjectedFlips() + devs[1].InjectedFlips())
	wantRetired := int64(devs[0].InjectedPrograms() + devs[1].InjectedPrograms() +
		devs[0].InjectedErases() + devs[1].InjectedErases())
	if h.FlashReadErrors != wantReads {
		t.Errorf("FlashReadErrors = %d, want the %d injected uncorrectable reads", h.FlashReadErrors, wantReads)
	}
	if h.FlashCorruptExtents != wantFlips {
		t.Errorf("FlashCorruptExtents = %d, want the %d injected bit flips", h.FlashCorruptExtents, wantFlips)
	}
	if h.FlashRetiredBlocks != wantRetired {
		t.Errorf("FlashRetiredBlocks = %d, want the %d injected program/erase failures", h.FlashRetiredBlocks, wantRetired)
	}
	if wantRetired == 0 || wantFlips == 0 || wantReads == 0 {
		t.Fatalf("drill fired no faults of some kind: reads %d flips %d retired %d", wantReads, wantFlips, wantRetired)
	}
	// Per-shard fault isolation proves the aggregation sums the right
	// shards rather than double-counting one.
	if s0 := fin.Shards[0]; s0.FlashCorruptExtents != 0 || s0.FlashRetiredBlocks != 0 {
		t.Errorf("shard 0 ran a read-error-only device but reports %+v", s0)
	}
	if s1 := fin.Shards[1]; s1.FlashReadErrors != 0 {
		t.Errorf("shard 1 ran without read faults but reports %+v", s1)
	}
	if headroom := int64(fin.Value("ota_flash_spare_headroom", -1)); headroom != spareBlocks-h.FlashRetiredBlocks {
		t.Errorf("spare headroom %d != budget %d - retired %d", headroom, spareBlocks, h.FlashRetiredBlocks)
	}
	// One sweep scrubs every non-retired segment exactly once.
	if scrubbed := int64(fin.Value("ota_flash_scrubbed_segments_total", -1)); scrubbed != totalSegments-h.FlashRetiredBlocks {
		t.Errorf("scrubbed segments = %d, want %d segments - %d retired", scrubbed, totalSegments, h.FlashRetiredBlocks)
	}
	if fin.Value("ota_flash_exhausted", -1) != 0 {
		t.Error("spare pool reported exhausted with headroom left")
	}
	if fin.Value("ota_ready", -1) != 1 {
		t.Error("/metrics ota_ready is 0 with spares left")
	}
	if err := c.Ready(); err != nil {
		t.Errorf("/readyz not 200 with spares left: %v", err)
	}

	// The scrubbed device serves clean: on shard 1 (whose read path is
	// healthy — its faults were flips, all found by the sweep) a third
	// pass must be all hits; keys whose extents were scrubbed away hit
	// without one, since absence is not a media fault. Shard 0's read
	// injector never heals by design, so its keys keep degrading — that
	// is the EveryNth schedule, not a scrub bug.
	for key := uint64(0); key < numKeys; key++ {
		if se.ShardFor(key) != 1 {
			continue
		}
		res, err := c.Lookup(key, objSize, nil)
		if err != nil {
			t.Fatalf("post-scrub key %d: %v", key, err)
		}
		if !res.Hit {
			t.Fatalf("post-scrub key %d missed; scrub did not heal the shard", key)
		}
	}
}

// TestReadyzFlashEOL pins device end-of-life handling: when a shard's
// spare pool is exhausted (every program failing, blocks retired until
// the budget is gone), /readyz flips to 503 so the node rotates out of
// the serving set — while /healthz stays 200 (the process is healthy,
// its media is not) and object traffic still serves without a 5xx.
func TestReadyzFlashEOL(t *testing.T) {
	se := newChaosSharded(t, 1, 1<<13)
	progInj := faults.NewInjector(faults.After(4, faults.Always(faults.Fault{Kind: faults.Error})), nil)
	err := engine.AttachFlashOpts(se, engine.FlashOptions{
		SegmentSize:   512,
		Overprovision: 1.5,
		SpareBlocks:   2,
		Device: func(_, segments int) flash.Device {
			return faults.WrapDevice(flash.NewMemDevice(segments), nil, progInj, nil, nil)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	srv := New(se, Config{})
	hs := serveTest(t, srv)
	c := NewClient(hs.URL, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 1})

	if err := c.Ready(); err != nil {
		t.Fatalf("healthy daemon not ready: %v", err)
	}
	fs := se.Shards()[0].Flash()
	for i := uint64(0); i < 64 && !fs.Stats().Exhausted; i++ {
		if _, err := c.Lookup(i, 256, nil); err != nil {
			t.Fatalf("write %d under program failures: %v", i, err)
		}
	}
	if !fs.Stats().Exhausted {
		t.Fatal("spare pool not exhausted after sustained program failures")
	}

	err = c.Ready()
	if err == nil {
		t.Fatal("/readyz still 200 with the spare pool exhausted")
	}
	if !strings.Contains(err.Error(), "spare pool exhausted") {
		t.Fatalf("/readyz failure does not name the cause: %v", err)
	}
	if err := c.Health(); err != nil {
		t.Fatalf("/healthz went down with the media, want liveness green: %v", err)
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Value("ota_ready", -1) != 0 {
		t.Error("/metrics ota_ready is 1 while /readyz serves 503")
	}
	if st.Value("ota_flash_exhausted", -1) != 1 {
		t.Error("/metrics ota_flash_exhausted does not report exhaustion")
	}
	// The node is EOL, not dead: object traffic keeps serving (misses
	// simply stop landing on flash) with no 5xx.
	if _, err := c.Lookup(999, 256, nil); err != nil {
		t.Fatalf("EOL daemon failed an object request: %v", err)
	}
}
