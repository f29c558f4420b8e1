package server

import (
	"math"
	"path/filepath"
	"testing"

	"otacache/internal/engine"
	"otacache/internal/ssd"
	"otacache/internal/stack"
	"otacache/internal/trace"
)

// withTestFlash is the buildE2E edit for the standard test device:
// 2MiB erase blocks (photos run up to ~1.3MB), 15% overprovision.
func withTestFlash(c *stack.Config) { c.FlashSegmentSize, c.FlashOverprovision = 2<<20, 1.15 }

// windowLifetimeDays estimates device lifetime from one replay window's
// wear delta, the way /metrics does: the TLC profile at the device
// capacity with the window's measured WAF swapped in, at the window's
// host-write rate (normalized to a nominal day of one window).
func windowLifetimeDays(t *testing.T, srv engine.Server, d engine.Metrics) float64 {
	t.Helper()
	var capacity int64
	for _, sh := range srv.Shards() {
		capacity += sh.Flash().Capacity()
	}
	dev, err := ssd.DefaultTLC(capacity).WithMeasuredWAF(d.FlashWAF())
	if err != nil {
		t.Fatal(err)
	}
	return dev.Lifetime(float64(d.FlashHostBytes)).Hours() / 24
}

// TestFlashWAFContinuityAcrossRestart is the flash half of the
// kill-and-restart acceptance criterion: replay half the trace,
// snapshot, restore into a fresh daemon-equivalent engine with the same
// device geometry, and replay the tail on both. The restore itself must
// charge no wear (the rebuild is Restore-writes onto clean blocks — no
// erase burst, no phantom host bytes), and the restored run's tail WAF
// and lifetime estimate must land within 2% of the uninterrupted run's:
// measured amplification picks up where the old process left off.
func TestFlashWAFContinuityAcrossRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds three classifier layers from an 8k-photo trace")
	}
	tr, err := trace.Generate(trace.DefaultConfig(7, 8000))
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Requests) / 2

	// Uninterrupted reference run.
	uninterrupted := buildE2E(t, tr, withTestFlash)
	w := newTraceWalker(tr)
	w.replayRange(0, half, uninterrupted)
	mid := uninterrupted.Snapshot()
	if mid.FlashHostBytes == 0 || mid.FlashErases == 0 {
		t.Fatalf("first half produced no device wear: %+v", mid)
	}

	// "Crash": snapshot, then restore into a freshly built identical
	// layer whose (empty) flash devices are attached before the load —
	// exactly the daemon's assembly order.
	path := filepath.Join(t.TempDir(), "otacached.snap")
	if _, err := SaveSnapshot(path, uninterrupted); err != nil {
		t.Fatal(err)
	}
	restored := buildE2E(t, tr, withTestFlash)
	if _, err := LoadSnapshot(path, restored); err != nil {
		t.Fatal(err)
	}

	// The rebuild re-materialized residency without wear: counters are
	// fresh (no erase burst, no phantom host writes), extents match the
	// restored policy exactly.
	r0 := restored.Snapshot()
	if r0.FlashErases != 0 {
		t.Fatalf("restore burst %d erases; the rebuild must land on clean blocks", r0.FlashErases)
	}
	if r0.FlashHostBytes != 0 || r0.FlashGCBytes != 0 {
		t.Fatalf("restore charged wear counters: %+v", r0)
	}
	for i, sh := range restored.Shards() {
		if got, want := sh.Flash().Len(), sh.Policy().Len(); got != want {
			t.Fatalf("shard %d: flash holds %d extents, policy %d residents", i, got, want)
		}
	}

	// Tail replay on both. The rebuild lands residency compacted onto
	// clean blocks — a free defrag the uninterrupted device did not get
	// — so the first stretch after restore transiently amplifies LESS.
	// Continuity is a steady-state property: burn a short warm-up
	// window to let the restored device's layout re-fragment, then
	// measure both arms over the same remaining window via interval
	// deltas.
	warm := half + 2*(len(tr.Requests)-half)/5
	w.replayRange(half, warm, uninterrupted, restored)
	u0 := uninterrupted.Snapshot()
	r1 := restored.Snapshot()
	w.replayRange(warm, len(tr.Requests), uninterrupted, restored)
	du := uninterrupted.Snapshot().Sub(u0)
	dr := restored.Snapshot().Sub(r1)

	if du.FlashErases == 0 || dr.FlashErases == 0 {
		t.Fatalf("degenerate tail: uninterrupted %d erases, restored %d", du.FlashErases, dr.FlashErases)
	}
	if gap := relGap(dr.FlashWAF(), du.FlashWAF()); gap > 0.02 {
		t.Errorf("restored tail WAF %.4f vs uninterrupted %.4f (gap %.2f%%, want within 2%%)",
			dr.FlashWAF(), du.FlashWAF(), gap*100)
	}
	lu := windowLifetimeDays(t, uninterrupted, du)
	lr := windowLifetimeDays(t, restored, dr)
	if gap := relGap(lr, lu); gap > 0.02 {
		t.Errorf("restored lifetime estimate %.1f days vs uninterrupted %.1f (gap %.2f%%, want within 2%%)",
			lr, lu, gap*100)
	}
}

// relGap returns |a-b| / b.
func relGap(a, b float64) float64 {
	if b == 0 {
		return math.Inf(1)
	}
	return math.Abs(a-b) / b
}
