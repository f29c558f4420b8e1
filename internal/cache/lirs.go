package cache

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
	hirBytes int64 // bytes of resident HIR objects

	stack lirsList // S: recency stack, front = most recent
	queue lirsList // Q: resident HIR, front = next eviction victim is back? see below
	ghost lirsList // FIFO of non-resident entries for ghost bounding

	ghostBytes int64

	items map[uint64]*lirsNode
}

// DefaultLIRRatio is the fraction of capacity reserved for the LIR set.
// The remaining 10% holds resident HIR blocks, matching the common LIRS
// configuration (the original paper suggests ~1%; 10% keeps the HIR
// queue meaningful for variable-size photo workloads and gives the
// paper's Rs = Cs/C = 0.9).
const DefaultLIRRatio = 0.9

// LIRS node states.
const (
	stateLIR uint8 = iota
	stateHIRResident
	stateHIRNonResident
)

type lirsNode struct {
	key   uint64
	size  int64
	state uint8

	sPrev, sNext *lirsNode
	inS          bool
	qPrev, qNext *lirsNode
	inQ          bool // in queue (resident HIR) or ghost FIFO (non-resident)
}

// lirsList is an intrusive list over either the stack links or the queue
// links, selected by useQ.
type lirsList struct {
	head, tail *lirsNode
	n          int
	useQ       bool
}

func (l *lirsList) pushFront(x *lirsNode) {
	if l.useQ {
		x.qPrev, x.qNext = nil, l.head
		if l.head != nil {
			l.head.qPrev = x
		}
		l.head = x
		if l.tail == nil {
			l.tail = x
		}
		x.inQ = true
	} else {
		x.sPrev, x.sNext = nil, l.head
		if l.head != nil {
			l.head.sPrev = x
		}
		l.head = x
		if l.tail == nil {
			l.tail = x
		}
		x.inS = true
	}
	l.n++
}

func (l *lirsList) remove(x *lirsNode) {
	if l.useQ {
		if x.qPrev != nil {
			x.qPrev.qNext = x.qNext
		} else {
			l.head = x.qNext
		}
		if x.qNext != nil {
			x.qNext.qPrev = x.qPrev
		} else {
			l.tail = x.qPrev
		}
		x.qPrev, x.qNext = nil, nil
		x.inQ = false
	} else {
		if x.sPrev != nil {
			x.sPrev.sNext = x.sNext
		} else {
			l.head = x.sNext
		}
		if x.sNext != nil {
			x.sNext.sPrev = x.sPrev
		} else {
			l.tail = x.sPrev
		}
		x.sPrev, x.sNext = nil, nil
		x.inS = false
	}
	l.n--
}

func (l *lirsList) back() *lirsNode { return l.tail }
func (l *lirsList) empty() bool     { return l.n == 0 }

// NewLIRS returns an empty LIRS cache. ratio is the LIR byte share in
// (0,1); use DefaultLIRRatio unless experimenting.
func NewLIRS(capacity int64, ratio float64) *LIRS {
	if ratio <= 0 || ratio >= 1 {
		ratio = DefaultLIRRatio
	}
	c := &LIRS{
		capacity: capacity,
		lirCap:   int64(float64(capacity) * ratio),
		items:    make(map[uint64]*lirsNode),
	}
	c.queue.useQ = true
	c.ghost.useQ = true
	return c
}

// Name implements Policy.
func (c *LIRS) Name() string { return "lirs" }

// LIRRatio returns Rs = Cs/C, the LIR share used by the paper's
// M_LIRS = M_LRU * Rs adjustment (§5.2).
func (c *LIRS) LIRRatio() float64 { return float64(c.lirCap) / float64(c.capacity) }

// Get implements Policy.
func (c *LIRS) Get(key uint64, _ int) bool {
	x, ok := c.items[key]
	if !ok || x.state == stateHIRNonResident {
		return false
	}
	switch x.state {
	case stateLIR:
		c.stack.remove(x)
		c.stack.pushFront(x)
		c.prune()
	case stateHIRResident:
		if x.inS {
			// Its IRR beats the stack bottom's recency: promote to LIR.
			c.queue.remove(x)
			x.state = stateLIR
			c.hirBytes -= x.size
			c.lirBytes += x.size
			c.stack.remove(x)
			c.stack.pushFront(x)
			c.shrinkLIR()
		} else {
			// Accessed again but with large IRR: stay HIR, refresh both
			// the stack and the queue position.
			c.stack.pushFront(x)
			c.queue.remove(x)
			c.queue.pushFront(x)
		}
	}
	return true
}

// Admit implements Policy.
func (c *LIRS) Admit(key uint64, size int64, _ int) {
	if size > c.capacity {
		return
	}
	x, ok := c.items[key]
	if ok && x.state != stateHIRNonResident {
		return
	}
	c.makeRoom(size)
	if ok {
		// Non-resident ghost in the stack: its reuse distance beat the
		// stack, so it enters as LIR.
		c.ghost.remove(x)
		c.ghostBytes -= x.size
		x.size = size
		x.state = stateLIR
		c.lirBytes += size
		if x.inS {
			c.stack.remove(x)
		}
		c.stack.pushFront(x)
		c.shrinkLIR()
	} else {
		x = &lirsNode{key: key, size: size}
		c.items[key] = x
		if c.lirBytes+size <= c.lirCap {
			// Cold-start fill: LIR set not yet full.
			x.state = stateLIR
			c.lirBytes += size
			c.stack.pushFront(x)
		} else {
			x.state = stateHIRResident
			c.hirBytes += size
			c.stack.pushFront(x)
			c.queue.pushFront(x)
		}
	}
	c.prune()
	c.boundGhosts()
}

// makeRoom evicts resident HIR objects (queue back) until size fits;
// if the queue runs dry it demotes the stack-bottom LIR first.
func (c *LIRS) makeRoom(size int64) {
	for c.lirBytes+c.hirBytes+size > c.capacity {
		if v := c.queue.back(); v != nil {
			c.queue.remove(v)
			c.hirBytes -= v.size
			if v.inS {
				// Keep it in the stack as a non-resident ghost.
				v.state = stateHIRNonResident
				c.ghost.pushFront(v)
				c.ghostBytes += v.size
			} else {
				delete(c.items, v.key)
			}
			c.evicted(v.key)
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
	v := c.stack.back()
	if v == nil || v.state != stateLIR {
		return false
	}
	c.stack.remove(v)
	v.state = stateHIRResident
	c.lirBytes -= v.size
	c.hirBytes += v.size
	c.queue.pushFront(v)
	c.prune()
	return true
}

// prune removes non-LIR entries from the stack bottom, maintaining the
// LIRS invariant that the stack bottom is LIR. Pruned non-resident
// entries are forgotten entirely.
func (c *LIRS) prune() {
	for {
		v := c.stack.back()
		if v == nil || v.state == stateLIR {
			return
		}
		c.stack.remove(v)
		if v.state == stateHIRNonResident {
			c.ghost.remove(v)
			c.ghostBytes -= v.size
			delete(c.items, v.key)
		}
		// Resident HIR entries stay in the queue, just not in the stack.
	}
}

// boundGhosts caps the non-resident stack footprint at one capacity of
// bytes, dropping the oldest ghosts first.
func (c *LIRS) boundGhosts() {
	for c.ghostBytes > c.capacity {
		v := c.ghost.back()
		if v == nil {
			return
		}
		c.ghost.remove(v)
		c.ghostBytes -= v.size
		if v.inS {
			c.stack.remove(v)
		}
		delete(c.items, v.key)
		c.prune()
	}
}

// Contains implements Policy (resident objects only).
func (c *LIRS) Contains(key uint64) bool {
	x, ok := c.items[key]
	return ok && x.state != stateHIRNonResident
}

// Len implements Policy.
func (c *LIRS) Len() int {
	n := 0
	for _, x := range c.items {
		if x.state != stateHIRNonResident {
			n++
		}
	}
	return n
}

// Used implements Policy.
func (c *LIRS) Used() int64 { return c.lirBytes + c.hirBytes }

// Cap implements Policy.
func (c *LIRS) Cap() int64 { return c.capacity }

// LIRBytes returns the resident LIR byte volume (for tests).
func (c *LIRS) LIRBytes() int64 { return c.lirBytes }

// HIRBytes returns the resident HIR byte volume (for tests).
func (c *LIRS) HIRBytes() int64 { return c.hirBytes }

// GhostBytes returns the non-resident stack footprint (for tests).
func (c *LIRS) GhostBytes() int64 { return c.ghostBytes }

// StackBottomIsLIR reports the LIRS pruning invariant (for tests).
func (c *LIRS) StackBottomIsLIR() bool {
	v := c.stack.back()
	return v == nil || v.state == stateLIR
}
