package flash

import (
	"testing"
	"time"
)

// TestObserverSamplesPrograms pins what an attached observer costs the
// write path: a host write reads the clock only when the read path's
// sampler fires, so N writes at sampleEvery k record about N/k program
// observations, while every collection pass is timed. The clock counts
// its reads, so an unsampled write that still read it shows as reads
// beyond two per observation.
func TestObserverSamplesPrograms(t *testing.T) {
	const (
		writes = 8000
		every  = 8
	)
	var reads int64
	now := func() time.Time {
		reads++
		return time.Unix(0, reads)
	}
	s := newStore(t, 4096, 16*4096)
	o := NewObserver(now, every)
	s.SetObserver(o)
	rng := uint64(3)
	for range writes {
		rng = rng*6364136223846793005 + 1442695040888963407
		if err := s.Write((rng>>33)%200, 128, nil); err != nil {
			t.Fatal(err)
		}
	}
	programs, passes := int64(o.Program.Snapshot().Count), int64(o.GC.Snapshot().Count)
	// The sampler counts per shard, and a shard is picked by stack
	// address, so a stack growth may restart the count: allow a few.
	if want := int64(writes / every); programs > want || programs < want-4 {
		t.Errorf("%d writes at 1 in %d recorded %d program observations, want %d", writes, every, programs, want)
	}
	st := s.Stats()
	if st.Erases == 0 {
		t.Fatal("the churn never collected")
	}
	// A healthy store's every pass erases its victim.
	if passes != st.Erases {
		t.Errorf("%d GC observations for %d passes", passes, st.Erases)
	}
	if want := 2 * (programs + passes); reads != want {
		t.Errorf("the clock was read %d times for %d observations, want %d", reads, programs+passes, want)
	}
}
