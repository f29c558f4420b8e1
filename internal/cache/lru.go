package cache

// LRU is the classic least-recently-used policy: hits move the object to
// the MRU end, evictions take the LRU end. It is the paper's baseline
// (§2.3) and the policy its one-time-access criteria (§4.3) is derived
// for.
type LRU struct {
	evictHook
	capacity int64
	list     dlist
	a        arena
}

// NewLRU returns an empty LRU cache with the given byte capacity.
func NewLRU(capacity int64) *LRU {
	return &LRU{capacity: capacity}
}

// Name implements Policy.
func (c *LRU) Name() string { return "lru" }

// Get implements Policy.
func (c *LRU) Get(key uint64, _ int) bool {
	s := c.a.Lookup(key)
	if s == nilSlot {
		return false
	}
	c.a.moveToFront(&c.list, s)
	return true
}

// Admit implements Policy.
func (c *LRU) Admit(key uint64, size int64, _ int) {
	if size > c.capacity {
		return
	}
	if c.a.Lookup(key) != nilSlot {
		return
	}
	for c.list.Bytes+size > c.capacity {
		c.evicted(c.a.evictBack(&c.list))
	}
	c.a.pushFront(&c.list, c.a.Add(key, entry{size: size}))
}

// Contains implements Policy.
func (c *LRU) Contains(key uint64) bool {
	return c.a.Lookup(key) != nilSlot
}

// Len implements Policy.
func (c *LRU) Len() int { return c.list.N }

// Used implements Policy.
func (c *LRU) Used() int64 { return c.list.Bytes }

// Cap implements Policy.
func (c *LRU) Cap() int64 { return c.capacity }

// FIFO evicts in insertion order; hits do not update any state. The
// paper includes it as the simplest baseline, and it benefits the most
// from the one-time-access-exclusion policy (Figures 6 and 10).
type FIFO struct {
	evictHook
	capacity int64
	list     dlist
	a        arena
}

// NewFIFO returns an empty FIFO cache with the given byte capacity.
func NewFIFO(capacity int64) *FIFO {
	return &FIFO{capacity: capacity}
}

// Name implements Policy.
func (c *FIFO) Name() string { return "fifo" }

// Get implements Policy. A FIFO hit changes no state.
func (c *FIFO) Get(key uint64, _ int) bool {
	return c.a.Lookup(key) != nilSlot
}

// Admit implements Policy.
func (c *FIFO) Admit(key uint64, size int64, _ int) {
	if size > c.capacity {
		return
	}
	if c.a.Lookup(key) != nilSlot {
		return
	}
	for c.list.Bytes+size > c.capacity {
		c.evicted(c.a.evictBack(&c.list))
	}
	c.a.pushFront(&c.list, c.a.Add(key, entry{size: size}))
}

// Contains implements Policy.
func (c *FIFO) Contains(key uint64) bool {
	return c.a.Lookup(key) != nilSlot
}

// Len implements Policy.
func (c *FIFO) Len() int { return c.list.N }

// Used implements Policy.
func (c *FIFO) Used() int64 { return c.list.Bytes }

// Cap implements Policy.
func (c *FIFO) Cap() int64 { return c.capacity }
