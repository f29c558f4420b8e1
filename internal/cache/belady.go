package cache

import (
	"container/heap"
	"math"
)

// Belady is the offline-optimal MIN policy: on eviction it discards the
// resident object whose next access lies farthest in the future (never-
// again-accessed objects first). It needs the trace's next-access index
// and the current request tick, so it only works in simulation — which
// is exactly how the paper uses it, as the upper-limit curve in Figures
// 2 and 6–10.
type Belady struct {
	evictHook
	capacity int64
	next     []int // trace-wide next-access index (trace.BuildNextAccess)
	items    map[uint64]*beladyItem
	pq       beladyHeap
	used     int64
}

type beladyItem struct {
	size     int64
	nextTick int // tick of this object's next access; math.MaxInt if none
}

type beladyEntry struct {
	key      uint64
	nextTick int
}

// beladyHeap is a max-heap on nextTick with lazy invalidation: stale
// entries (whose nextTick no longer matches the item) are discarded on
// pop instead of being removed eagerly.
type beladyHeap []beladyEntry

func (h beladyHeap) Len() int            { return len(h) }
func (h beladyHeap) Less(i, j int) bool  { return h[i].nextTick > h[j].nextTick }
func (h beladyHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *beladyHeap) Push(x interface{}) { *h = append(*h, x.(beladyEntry)) }
func (h *beladyHeap) Pop() interface{} {
	old := *h
	n := len(old)
	e := old[n-1]
	*h = old[:n-1]
	return e
}

// NewBelady returns an empty Belady cache. next must be the next-access
// index of the exact request stream the cache will be driven with.
func NewBelady(capacity int64, next []int) *Belady {
	return &Belady{
		capacity: capacity,
		next:     next,
		items:    make(map[uint64]*beladyItem),
	}
}

// Name implements Policy.
func (c *Belady) Name() string { return "belady" }

// nextOf translates the trace's next-access value at tick into a heap
// priority.
func (c *Belady) nextOf(tick int) int {
	if tick < 0 || tick >= len(c.next) || c.next[tick] < 0 {
		return math.MaxInt
	}
	return c.next[tick]
}

// Get implements Policy. tick must be the index of the current request
// in the trace the next-access index was built from.
func (c *Belady) Get(key uint64, tick int) bool {
	it, ok := c.items[key]
	if !ok {
		return false
	}
	it.nextTick = c.nextOf(tick)
	heap.Push(&c.pq, beladyEntry{key: key, nextTick: it.nextTick})
	return true
}

// Admit implements Policy.
func (c *Belady) Admit(key uint64, size int64, tick int) {
	if size > c.capacity {
		return
	}
	if _, ok := c.items[key]; ok {
		return
	}
	for c.used+size > c.capacity {
		if !c.evictFarthest() {
			return
		}
	}
	it := &beladyItem{size: size, nextTick: c.nextOf(tick)}
	c.items[key] = it
	c.used += size
	heap.Push(&c.pq, beladyEntry{key: key, nextTick: it.nextTick})
}

// evictFarthest removes the resident object with the farthest next
// access. Returns false if the cache is empty.
func (c *Belady) evictFarthest() bool {
	for c.pq.Len() > 0 {
		e := heap.Pop(&c.pq).(beladyEntry)
		it, ok := c.items[e.key]
		if !ok || it.nextTick != e.nextTick {
			continue // stale lazy-deleted entry
		}
		delete(c.items, e.key)
		c.used -= it.size
		c.evicted(e.key)
		return true
	}
	return false
}

// Contains implements Policy.
func (c *Belady) Contains(key uint64) bool {
	_, ok := c.items[key]
	return ok
}

// Len implements Policy.
func (c *Belady) Len() int { return len(c.items) }

// Used implements Policy.
func (c *Belady) Used() int64 { return c.used }

// Cap implements Policy.
func (c *Belady) Cap() int64 { return c.capacity }
