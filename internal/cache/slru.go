package cache

import "fmt"

// SLRU is segmented LRU (Karedla, Love, Wherry 1994). The cache is
// divided into k equally sized segments ordered from probationary
// (segment 0) to most protected (segment k-1):
//
//   - new objects enter segment 0 at the MRU end;
//   - a hit promotes the object one segment up (capped at the top),
//     to that segment's MRU end;
//   - when a segment exceeds its byte budget its LRU tail is demoted to
//     the MRU end of the segment below;
//   - demotions out of segment 0 are evictions.
//
// The paper's S3LRU is SLRU with k=3.
type SLRU struct {
	evictHook
	capacity int64
	segCap   []int64
	segs     []dlist
	a        arena
}

// NewSLRU returns an empty segmented LRU with k segments splitting the
// byte capacity evenly (the last segment absorbs the rounding
// remainder). It panics if k <= 0.
func NewSLRU(capacity int64, k int) *SLRU {
	if k <= 0 {
		panic(fmt.Sprintf("cache: NewSLRU called with k=%d", k))
	}
	c := &SLRU{
		capacity: capacity,
		segCap:   make([]int64, k),
		segs:     make([]dlist, k),
	}
	per := capacity / int64(k)
	for i := range c.segCap {
		c.segCap[i] = per
	}
	c.segCap[k-1] += capacity - per*int64(k)
	return c
}

// Name implements Policy.
func (c *SLRU) Name() string {
	return fmt.Sprintf("s%dlru", len(c.segs))
}

// Get implements Policy.
func (c *SLRU) Get(key uint64, _ int) bool {
	s := c.a.Lookup(key)
	if s == nilSlot {
		return false
	}
	from := int(c.a.Val(s).seg)
	to := min(from+1, len(c.segs)-1)
	c.a.unlink(&c.segs[from], s)
	c.a.Val(s).seg = int8(to)
	c.a.pushFront(&c.segs[to], s)
	c.rebalance(to)
	return true
}

// Admit implements Policy.
func (c *SLRU) Admit(key uint64, size int64, _ int) {
	if size > c.capacity {
		return
	}
	if c.a.Lookup(key) != nilSlot {
		return
	}
	c.a.pushFront(&c.segs[0], c.a.Add(key, entry{size: size}))
	c.rebalance(0)
	// Inserting into segment 0 can still exceed the total capacity when
	// upper segments hold surplus from promotions; trim globally from
	// the probationary tail.
	for c.Used() > c.capacity {
		c.evictLowest()
	}
}

// rebalance demotes overflow from segment i downward; overflow out of
// segment 0 is evicted.
func (c *SLRU) rebalance(i int) {
	for s := i; s >= 0; s-- {
		// A segment may temporarily hold a single object larger than its
		// budget (photo sizes can exceed capacity/k); the global trim in
		// Admit still enforces the total capacity.
		for c.segs[s].Bytes > c.segCap[s] && c.segs[s].N > 1 {
			if s == 0 {
				c.evicted(c.a.evictBack(&c.segs[0]))
				continue
			}
			victim := c.segs[s].Tail
			c.a.unlink(&c.segs[s], victim)
			c.a.Val(victim).seg = int8(s - 1)
			c.a.pushFront(&c.segs[s-1], victim)
		}
	}
}

// evictLowest removes one object from the lowest non-empty segment.
func (c *SLRU) evictLowest() {
	for s := 0; s < len(c.segs); s++ {
		if c.segs[s].N > 0 {
			c.evicted(c.a.evictBack(&c.segs[s]))
			return
		}
	}
}

// Contains implements Policy.
func (c *SLRU) Contains(key uint64) bool {
	return c.a.Lookup(key) != nilSlot
}

// Len implements Policy.
func (c *SLRU) Len() int { return c.a.Len() }

// Used implements Policy.
func (c *SLRU) Used() int64 {
	var b int64
	for i := range c.segs {
		b += c.segs[i].Bytes
	}
	return b
}

// Cap implements Policy.
func (c *SLRU) Cap() int64 { return c.capacity }

// SegmentBytes returns the resident bytes of segment i (for tests and
// introspection).
func (c *SLRU) SegmentBytes(i int) int64 { return c.segs[i].Bytes }
