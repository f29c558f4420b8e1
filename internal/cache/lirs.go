package cache

import "otacache/internal/slab"

// LIRS (Jiang & Zhang, SIGMETRICS'02) ranks objects by Inter-Reference
// Recency (IRR): the recency of an object's penultimate access. Objects
// with low IRR are LIR ("low inter-reference recency") and protected;
// the rest are HIR and live in a small probationary queue Q. The LIRS
// stack S records recency and is pruned so its bottom entry is always
// LIR.
//
// This implementation is size-aware: the LIR set has a byte budget of
// ratio*capacity (the paper's Cs, used in its M_LIRS = M_LRU * Rs
// criteria adjustment, §5.2), the resident-HIR queue gets the rest, and
// non-resident (ghost) stack entries are bounded to one capacity's worth
// of bytes.
type LIRS struct {
	evictHook
	capacity int64
	lirCap   int64

	lirBytes int64 // bytes of LIR objects (all resident)

	// The stack is threaded through the arena's links, the queue and the
	// ghost FIFO through q, which grows with the arena. A node is in at
	// most one of queue and ghost: resident HIR objects are queued,
	// non-resident ones are ghosts. Their byte counts are the resident
	// HIR and the ghost footprints.
	a     arena
	q     []slab.Link
	stack dlist // S: recency stack, front = most recent
	queue dlist // Q: resident HIR, back = next eviction victim
	ghost dlist // FIFO of non-resident entries for ghost bounding
}

// DefaultLIRRatio is the fraction of capacity reserved for the LIR set.
// The remaining 10% holds resident HIR blocks, matching the common LIRS
// configuration (the original paper suggests ~1%; 10% keeps the HIR
// queue meaningful for variable-size photo workloads and gives the
// paper's Rs = Cs/C = 0.9).
const DefaultLIRRatio = 0.9

// LIRS node states, stored in node.seg.
const (
	stateLIR int8 = iota
	stateHIRResident
	stateHIRNonResident
)

// NewLIRS returns an empty LIRS cache. ratio is the LIR byte share in
// (0,1); use DefaultLIRRatio unless experimenting.
func NewLIRS(capacity int64, ratio float64) *LIRS {
	if ratio <= 0 || ratio >= 1 {
		ratio = DefaultLIRRatio
	}
	return &LIRS{
		capacity: capacity,
		lirCap:   int64(float64(capacity) * ratio),
	}
}

// pushStack puts x on top of the stack.
func (c *LIRS) pushStack(x int32) {
	c.a.pushFront(&c.stack, x)
	c.a.Val(x).inStack = true
}

// popStack takes x out of the stack.
func (c *LIRS) popStack(x int32) {
	c.a.unlink(&c.stack, x)
	c.a.Val(x).inStack = false
}

// enqueue puts x at the front of l, the queue or the ghost FIFO.
func (c *LIRS) enqueue(l *dlist, x int32) { l.PushFront(c.q, x, c.a.Val(x).size) }

// dequeue takes x out of l, the queue or the ghost FIFO.
func (c *LIRS) dequeue(l *dlist, x int32) { l.Unlink(c.q, x, c.a.Val(x).size) }

// add stores a new key in the arena with the given state.
func (c *LIRS) add(key uint64, size int64, state int8) int32 {
	x := c.a.Add(key, entry{size: size})
	c.a.Val(x).seg = state
	for len(c.q) < len(c.a.Links()) {
		c.q = append(c.q, slab.Link{})
	}
	return x
}

// Name implements Policy.
func (c *LIRS) Name() string { return "lirs" }

// LIRRatio returns Rs = Cs/C, the LIR share used by the paper's
// M_LIRS = M_LRU * Rs adjustment (§5.2).
func (c *LIRS) LIRRatio() float64 { return float64(c.lirCap) / float64(c.capacity) }

// Get implements Policy.
func (c *LIRS) Get(key uint64, _ int) bool {
	x := c.a.Lookup(key)
	if x == nilSlot || c.a.Val(x).seg == stateHIRNonResident {
		return false
	}
	switch n := c.a.Val(x); n.seg {
	case stateLIR:
		c.a.moveToFront(&c.stack, x)
		c.prune()
	case stateHIRResident:
		if n.inStack {
			// Its IRR beats the stack bottom's recency: promote to LIR.
			c.dequeue(&c.queue, x)
			n.seg = stateLIR
			c.lirBytes += n.size
			c.a.moveToFront(&c.stack, x)
			c.shrinkLIR()
		} else {
			// Accessed again but with large IRR: stay HIR, refresh both
			// the stack and the queue position.
			c.pushStack(x)
			c.dequeue(&c.queue, x)
			c.enqueue(&c.queue, x)
		}
	}
	return true
}

// Admit implements Policy.
func (c *LIRS) Admit(key uint64, size int64, _ int) {
	if size > c.capacity {
		return
	}
	x := c.a.Lookup(key)
	if x != nilSlot && c.a.Val(x).seg != stateHIRNonResident {
		return
	}
	c.makeRoom(size)
	if x != nilSlot {
		// Making room can demote the stack's bottom LIR object and prune
		// the ghost along with the HIR entries above it; then the key is
		// new after all.
		x = c.a.Lookup(key)
	}
	if x != nilSlot {
		// Non-resident ghost in the stack: its reuse distance beat the
		// stack, so it enters as LIR.
		c.dequeue(&c.ghost, x)
		if c.a.Val(x).inStack {
			c.popStack(x)
		}
		c.a.Val(x).size = size
		c.a.Val(x).seg = stateLIR
		c.lirBytes += size
		c.pushStack(x)
		c.shrinkLIR()
	} else if c.lirBytes+size <= c.lirCap {
		// Cold-start fill: LIR set not yet full.
		c.lirBytes += size
		c.pushStack(c.add(key, size, stateLIR))
	} else {
		x = c.add(key, size, stateHIRResident)
		c.pushStack(x)
		c.enqueue(&c.queue, x)
	}
	c.prune()
	c.boundGhosts()
}

// makeRoom evicts resident HIR objects (queue back) until size fits;
// if the queue runs dry it demotes the stack-bottom LIR first.
func (c *LIRS) makeRoom(size int64) {
	for c.lirBytes+c.queue.Bytes+size > c.capacity {
		if v := c.queue.Tail; v != nilSlot {
			c.dequeue(&c.queue, v)
			n := c.a.Val(v)
			key := c.a.Key(v)
			if n.inStack {
				// Keep it in the stack as a non-resident ghost.
				n.seg = stateHIRNonResident
				c.enqueue(&c.ghost, v)
			} else {
				c.a.Del(v)
			}
			c.evicted(key)
			continue
		}
		if !c.demoteBottomLIR() {
			return // cache empty; nothing more to free
		}
	}
}

// shrinkLIR demotes stack-bottom LIR objects to resident HIR until the
// LIR set fits its byte budget.
func (c *LIRS) shrinkLIR() {
	for c.lirBytes > c.lirCap {
		if !c.demoteBottomLIR() {
			return
		}
	}
}

// demoteBottomLIR turns the stack's bottom LIR object into a resident
// HIR queue entry. Returns false if there is no LIR object.
func (c *LIRS) demoteBottomLIR() bool {
	c.prune()
	v := c.stack.Tail
	if v == nilSlot || c.a.Val(v).seg != stateLIR {
		return false
	}
	c.popStack(v)
	c.a.Val(v).seg = stateHIRResident
	c.lirBytes -= c.a.Val(v).size
	c.enqueue(&c.queue, v)
	c.prune()
	return true
}

// prune removes non-LIR entries from the stack bottom, maintaining the
// LIRS invariant that the stack bottom is LIR. Pruned non-resident
// entries are forgotten entirely.
func (c *LIRS) prune() {
	for {
		v := c.stack.Tail
		if v == nilSlot || c.a.Val(v).seg == stateLIR {
			return
		}
		c.popStack(v)
		if c.a.Val(v).seg == stateHIRNonResident {
			c.dequeue(&c.ghost, v)
			c.a.Del(v)
		}
		// Resident HIR entries stay in the queue, just not in the stack.
	}
}

// boundGhosts caps the non-resident stack footprint at one capacity of
// bytes, dropping the oldest ghosts first.
func (c *LIRS) boundGhosts() {
	for c.ghost.Bytes > c.capacity {
		v := c.ghost.Tail
		if v == nilSlot {
			return
		}
		c.dequeue(&c.ghost, v)
		if c.a.Val(v).inStack {
			c.popStack(v)
		}
		c.a.Del(v)
		c.prune()
	}
}

// Contains implements Policy (resident objects only).
func (c *LIRS) Contains(key uint64) bool {
	x := c.a.Lookup(key)
	return x != nilSlot && c.a.Val(x).seg != stateHIRNonResident
}

// Len implements Policy: every stored key that is not a ghost.
func (c *LIRS) Len() int { return c.a.Len() - c.ghost.N }

// Used implements Policy.
func (c *LIRS) Used() int64 { return c.lirBytes + c.queue.Bytes }

// Cap implements Policy.
func (c *LIRS) Cap() int64 { return c.capacity }

// LIRBytes returns the resident LIR byte volume (for tests).
func (c *LIRS) LIRBytes() int64 { return c.lirBytes }

// HIRBytes returns the resident HIR byte volume (for tests).
func (c *LIRS) HIRBytes() int64 { return c.queue.Bytes }

// GhostBytes returns the non-resident stack footprint (for tests).
func (c *LIRS) GhostBytes() int64 { return c.ghost.Bytes }

// StackBottomIsLIR reports the LIRS pruning invariant (for tests).
func (c *LIRS) StackBottomIsLIR() bool {
	v := c.stack.Tail
	return v == nilSlot || c.a.Val(v).seg == stateLIR
}
