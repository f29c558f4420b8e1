package engine

import (
	"testing"

	"otacache/internal/cache"
)

// TestMetricsSub pins the interval-delta arithmetic a scraper and the
// load generator rely on: driving an engine in two windows and subtracting
// the surrounding snapshots must yield exactly the second window's
// counters.
func TestMetricsSub(t *testing.T) {
	a := Metrics{Requests: 10, Hits: 4, HitBytes: 400, Misses: 6, Writes: 5, WriteBytes: 500, Bypassed: 1, Rectified: 1, TotalBytes: 1000}
	b := Metrics{Requests: 25, Hits: 13, HitBytes: 1300, Misses: 12, Writes: 8, WriteBytes: 800, Bypassed: 4, Rectified: 2, TotalBytes: 2500}
	d := b.Sub(a)
	want := Metrics{Requests: 15, Hits: 9, HitBytes: 900, Misses: 6, Writes: 3, WriteBytes: 300, Bypassed: 3, Rectified: 1, TotalBytes: 1500}
	if d != want {
		t.Fatalf("Sub = %+v, want %+v", d, want)
	}
	if got := d.HitRate(); got != 9.0/15.0 {
		t.Fatalf("interval HitRate = %v, want %v", got, 9.0/15.0)
	}
	if got := d.WriteRate(); got != 3.0/15.0 {
		t.Fatalf("interval WriteRate = %v, want %v", got, 3.0/15.0)
	}

	// Sub against the zero value is the identity, and subtracting a
	// snapshot from itself is zero: the first window after boot and an
	// idle one.
	if b.Sub(Metrics{}) != b {
		t.Fatal("Sub(zero) must be the identity")
	}
	if (b.Sub(b) != Metrics{}) {
		t.Fatal("Sub(self) must be zero")
	}
}

// TestMetricsSubTracksEngine drives a real engine in two windows and
// checks the snapshot difference equals the second window alone.
func TestMetricsSubTracksEngine(t *testing.T) {
	eng, err := New(cache.NewLRU(600), nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		eng.Lookup(uint64(i%10), 100, eng.NextTick(), nil)
	}
	mid := eng.Snapshot()
	for i := 0; i < 50; i++ {
		eng.Lookup(uint64(i%10), 100, eng.NextTick(), nil)
	}
	d := eng.Snapshot().Sub(mid)
	if d.Requests != 50 {
		t.Fatalf("interval requests = %d, want 50", d.Requests)
	}
	if d.TotalBytes != 5000 {
		t.Fatalf("interval bytes = %d, want 5000", d.TotalBytes)
	}
	if d.Hits+d.Misses != d.Requests {
		t.Fatalf("interval hits %d + misses %d != requests %d", d.Hits, d.Misses, d.Requests)
	}
}
