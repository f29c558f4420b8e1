package flash

import (
	"time"

	"otacache/internal/obs"
)

// Observer is the store's optional latency measurement plane: sampled
// extent-read and host-program timing (one read per flash hit, one
// program per admission, two clock reads per timed call) and unsampled
// GC timing (a pass per segment's worth of writes). The
// clock is a plain func field rather than a faults.Clock because the
// dependency points the other way — faults wraps flash devices, so
// flash cannot import it; the serving layer passes its clock's Now
// method in, which keeps the detclock determinism story intact.
//
// All fields must be non-nil; use NewObserver.
type Observer struct {
	// Now is the injected clock read.
	Now func() time.Time
	// Sampler gates read and program timing (1-in-N, one count shared
	// by both); GC timing is unconditional.
	Sampler *obs.Sampler
	// Read observes ReadExtent latency for sampled reads.
	Read *obs.Histogram
	// Program observes sampled host Write latency (admission -> device
	// program, including any collection the append triggered).
	Program *obs.Histogram
	// GC observes one greedy collection pass (victim scan, survivor
	// relocation, erase).
	GC *obs.Histogram
}

// NewObserver builds an observer around the injected clock read.
// sampleEvery <= 1 times every read and every host write.
func NewObserver(now func() time.Time, sampleEvery int) *Observer {
	return &Observer{
		Now:     now,
		Sampler: obs.NewSampler(sampleEvery),
		Read:    obs.NewHistogram(),
		Program: obs.NewHistogram(),
		GC:      obs.NewHistogram(),
	}
}

// SetObserver attaches (or, with nil, detaches) the measurement plane.
// An atomic pointer because the daemon wires observability after
// assembly, racing live traffic.
func (s *Store) SetObserver(o *Observer) { s.obsv.Store(o) }

// Observer returns the attached measurement plane (nil when none).
func (s *Store) Observer() *Observer { return s.obsv.Load() }
