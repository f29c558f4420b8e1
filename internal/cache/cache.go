// Package cache implements the size-aware SSD cache substrate: a common
// replacement-policy interface and the six policies the paper evaluates
// (LRU, FIFO, S3LRU, ARC, LIRS, and the offline-optimal Belady).
//
// All policies account capacity in bytes, since photo sizes vary by two
// orders of magnitude across the twelve photo types. ARC and LIRS are
// size-aware generalizations of their unit-size originals: ghost and
// stack entries carry byte sizes, and adaptation deltas are size-scaled.
//
// Admission control is deliberately *outside* this package: a policy
// only sees an object when the caller decides to Admit it. A bypassed
// miss therefore changes no policy state, matching the paper's
// architecture in which the classification system sits in front of the
// cache (Figure 4).
package cache

import "fmt"

// Policy is a size-aware cache replacement policy.
//
// The caller drives it with the request stream: Get on every access
// (which updates recency/frequency state on a hit), and Admit on the
// misses that pass admission control. tick is the global request index;
// only the offline Belady policy consumes it, the online policies ignore
// it.
type Policy interface {
	// Name returns the policy's canonical lowercase name (e.g. "lru").
	Name() string
	// Get reports whether key is resident and, if so, updates the
	// policy's internal state exactly as a cache hit would.
	Get(key uint64, tick int) bool
	// Admit inserts key with the given size, evicting residents as
	// needed. The caller must only call Admit after Get returned false
	// for the same request. Objects larger than the capacity are
	// rejected (no state change). Admitting an already-resident key is a
	// no-op.
	Admit(key uint64, size int64, tick int)
	// Contains reports residence without updating any state.
	Contains(key uint64) bool
	// Len returns the number of resident objects.
	Len() int
	// Used returns the resident bytes.
	Used() int64
	// Cap returns the capacity in bytes.
	Cap() int64
	// SetEvictNotify installs fn as the eviction callback, replacing any
	// previous one; nil uninstalls. This is how a store holding the
	// residents' bytes drops them the moment the policy lets go, instead
	// of probing Contains for everything it holds.
	//
	// fn fires once for every resident the policy itself pushes out to
	// make room — an LRU/FIFO/SLRU tail eviction, an ARC T1/T2 entry
	// turned ghost (or dropped outright), a LIRS resident-HIR leaving the
	// queue, Belady's farthest-next-access victim — with Contains(key)
	// already false. It does not fire for ghost or history pruning (those
	// objects left earlier) nor for Remove (the caller asked; it knows).
	// Admit + the callback + Remove therefore account for the resident
	// set exactly.
	//
	// fn runs inside the policy's mutation, under whatever lock guards it
	// (Sharded's stripe lock): it must be quick and must never call back
	// into the policy.
	SetEvictNotify(fn func(key uint64))
}

// Names lists the registered policy names in the order the paper's
// figures present them.
func Names() []string {
	return []string{"lru", "fifo", "s3lru", "arc", "lirs", "belady"}
}

// New constructs a policy by name. The offline "belady" policy requires
// the trace's next-access index (see trace.BuildNextAccess); online
// policies ignore it and accept nil.
func New(name string, capacity int64, next []int) (Policy, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: capacity must be positive, got %d", capacity)
	}
	switch name {
	case "lru":
		return NewLRU(capacity), nil
	case "fifo":
		return NewFIFO(capacity), nil
	case "s3lru":
		return NewSLRU(capacity, 3), nil
	case "arc":
		return NewARC(capacity), nil
	case "lirs":
		return NewLIRS(capacity, DefaultLIRRatio), nil
	case "belady":
		if next == nil {
			return nil, fmt.Errorf("cache: belady requires a next-access index")
		}
		return NewBelady(capacity, next), nil
	default:
		return nil, fmt.Errorf("cache: unknown policy %q (have %v)", name, Names())
	}
}
