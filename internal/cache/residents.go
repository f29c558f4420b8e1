package cache

import (
	"sync"

	"otacache/internal/slab"
)

// Ranger is the optional enumeration side of Policy: policies that can
// walk their resident set implement it so a cache server can snapshot
// residency for a crash-safe restart. Range visits every resident
// object from coldest (the next eviction victim) to hottest (the most
// protected), stopping early when fn returns false.
//
// The cold-to-hot order is the restore order: re-Admitting the visited
// objects into an empty policy of the same kind rebuilds the resident
// set with (at least approximately) the original eviction order — for
// LRU and FIFO exactly, for the segmented/adaptive policies as a warm
// approximation whose protected structure re-forms under traffic.
//
// Like every other Policy method, Range on the bare single-threaded
// policies must not race with concurrent mutation; Sharded serializes
// per shard.
type Ranger interface {
	Range(fn func(key uint64, size int64) bool)
}

// AsRanger returns p's resident walk when it covers the whole resident
// set. A wrapper that implements Range over inner policies (Sharded,
// faults.Policy) reports through a CanRange method whether every inner
// policy can range; one that cannot would walk only part of the set, so
// AsRanger refuses it instead of letting a snapshot come out short.
func AsRanger(p Policy) (Ranger, bool) {
	r, ok := p.(Ranger)
	if !ok {
		return nil, false
	}
	if w, ok := p.(interface{ CanRange() bool }); ok && !w.CanRange() {
		return nil, false
	}
	return r, true
}

// rangeList walks l, threaded through ln, from the eviction end to the
// MRU end.
func (a *arena) rangeList(l *dlist, ln []slab.Link, fn func(key uint64, size int64) bool) bool {
	for s := range l.Backward(ln) {
		if !fn(a.Key(s), a.Val(s).size) {
			return false
		}
	}
	return true
}

// Range implements Ranger: LRU end to MRU end.
func (c *LRU) Range(fn func(key uint64, size int64) bool) {
	c.a.rangeList(&c.list, c.a.Links(), fn)
}

// Range implements Ranger: oldest insertion to newest.
func (c *FIFO) Range(fn func(key uint64, size int64) bool) {
	c.a.rangeList(&c.list, c.a.Links(), fn)
}

// Range implements Ranger: probationary segment first (its LRU tail is
// the global victim), then each more-protected segment, tail to head.
func (c *SLRU) Range(fn func(key uint64, size int64) bool) {
	for s := range c.segs {
		if !c.a.rangeList(&c.segs[s], c.a.Links(), fn) {
			return
		}
	}
}

// Range implements Ranger: the recency list T1 (evicted first when the
// adaptation target favors frequency), then the frequency list T2, each
// tail to head. Ghost entries are not resident and are not visited.
func (c *ARC) Range(fn func(key uint64, size int64) bool) {
	if c.a.rangeList(&c.t1, c.a.Links(), fn) {
		c.a.rangeList(&c.t2, c.a.Links(), fn)
	}
}

// Range implements Ranger: the resident-HIR queue back to front (queue
// back is the eviction victim), then the LIR set from the stack bottom
// up (bottom LIR objects are demoted first). Non-resident ghosts are
// not visited.
func (c *LIRS) Range(fn func(key uint64, size int64) bool) {
	if !c.a.rangeList(&c.queue, c.q, fn) {
		return
	}
	for x := range c.stack.Backward(c.a.Links()) {
		if n := c.a.Val(x); n.seg == stateLIR && !fn(c.a.Key(x), n.size) {
			return
		}
	}
}

// Range implements Ranger over every shard in turn, holding one shard
// lock at a time. The cross-shard visit order carries no warmth
// information — a restore routes each key back to its home shard by
// hash, so only the per-shard order matters, and that is preserved.
// Shards whose policy does not implement Ranger are skipped; CanRange
// reports whether there are any, and AsRanger checks it.
func (s *Sharded) Range(fn func(key uint64, size int64) bool) { s.rangeStripes(nil, fn) }

// RangeUnder walks the residents as Sharded.Range does, holding l — the
// lock the view's owner serializes it with — around each stripe's walk
// and releasing it between stripes, so a walk stalls the owner's other
// callers no longer than one stripe's walk.
func (u *Unlocked) RangeUnder(l sync.Locker, fn func(key uint64, size int64) bool) {
	(*Sharded)(u).rangeStripes(l, fn)
}

// rangeStripes walks every stripe in turn under l, or under the
// stripe's own lock when l is nil.
func (s *Sharded) rangeStripes(l sync.Locker, fn func(key uint64, size int64) bool) {
	for i := range s.shards {
		sh := &s.shards[i]
		r, ok := sh.p.(Ranger)
		if !ok {
			continue
		}
		lk := l
		if lk == nil {
			lk = &sh.mu
		}
		stopped := false
		lk.Lock()
		r.Range(func(key uint64, size int64) bool {
			if !fn(key, size) {
				stopped = true
				return false
			}
			return true
		})
		lk.Unlock()
		if stopped {
			return
		}
	}
}

// CanRange reports whether every shard's policy can enumerate its
// residents, so Range walks the whole resident set. The shard policies
// are fixed at construction, so no lock is taken.
func (s *Sharded) CanRange() bool {
	for i := range s.shards {
		if _, ok := AsRanger(s.shards[i].p); !ok {
			return false
		}
	}
	return true
}
