package cache

// ARC is a size-aware generalization of Adaptive Replacement Cache
// (Megiddo & Modha, FAST'03). It keeps two resident lists — T1 for
// objects seen once recently, T2 for objects seen at least twice — and
// two ghost lists B1/B2 remembering recently evicted keys. A hit in a
// ghost list steers the adaptation target p, which divides the byte
// capacity between recency (T1) and frequency (T2).
//
// Size-awareness: all list budgets are in bytes, ghost entries remember
// object sizes, and the adaptation delta is scaled by the size of the
// object that hit the ghost list, so one large object moves p as much as
// an equivalent volume of small ones.
type ARC struct {
	evictHook
	capacity int64
	p        int64 // target size of T1 in bytes
	t1, t2   dlist // resident
	b1, b2   dlist // ghosts
	a        arena
}

// List identifiers stored in node.seg.
const (
	arcT1 int8 = iota
	arcT2
	arcB1
	arcB2
)

// NewARC returns an empty ARC cache with the given byte capacity.
func NewARC(capacity int64) *ARC {
	return &ARC{capacity: capacity}
}

// Name implements Policy.
func (c *ARC) Name() string { return "arc" }

// Get implements Policy. Only resident (T1/T2) entries count as hits; a
// ghost entry is a miss whose adaptation is applied when (and only when)
// the object is admitted.
func (c *ARC) Get(key uint64, _ int) bool {
	s := c.a.Lookup(key)
	if s == nilSlot || c.a.Val(s).seg > arcT2 {
		return false
	}
	c.a.unlink(c.listOf(c.a.Val(s).seg), s)
	c.a.Val(s).seg = arcT2
	c.a.pushFront(&c.t2, s)
	return true
}

// Admit implements Policy.
func (c *ARC) Admit(key uint64, size int64, _ int) {
	if size > c.capacity {
		return
	}
	s := c.a.Lookup(key)
	seg := int8(-1)
	if s != nilSlot {
		seg = c.a.Val(s).seg
	}
	if seg == arcT1 || seg == arcT2 {
		return // already resident
	}
	switch seg {
	case arcB1:
		// Recency ghost hit: grow the T1 target by the object's size,
		// scaled up when B2 outweighs B1 (the original max(|B2|/|B1|,1)).
		delta := size
		if c.b1.Bytes > 0 && c.b2.Bytes > c.b1.Bytes {
			delta = size * (c.b2.Bytes / c.b1.Bytes)
		}
		c.p = min(c.p+delta, c.capacity)
		c.a.unlink(&c.b1, s)
		c.a.Val(s).size = size
		c.replace(false, size)
		c.a.Val(s).seg = arcT2
		c.a.pushFront(&c.t2, s)
	case arcB2:
		// Frequency ghost hit: shrink the T1 target.
		delta := size
		if c.b2.Bytes > 0 && c.b1.Bytes > c.b2.Bytes {
			delta = size * (c.b1.Bytes / c.b2.Bytes)
		}
		c.p = max(c.p-delta, 0)
		c.a.unlink(&c.b2, s)
		c.a.Val(s).size = size
		c.replace(true, size)
		c.a.Val(s).seg = arcT2
		c.a.pushFront(&c.t2, s)
	default:
		// Brand-new object: ARC Case IV, generalized to bytes. First
		// bound L1 = T1+B1 at one capacity, preferring to shed B1
		// history; with B1 empty, T1 LRU pages fall out without
		// ghosting, exactly as the original's Case IV-A else-branch.
		for c.t1.Bytes+c.b1.Bytes+size > c.capacity {
			if !c.b1.Empty() {
				c.dropGhost(&c.b1)
			} else if !c.t1.Empty() {
				c.evicted(c.a.evictBack(&c.t1))
			} else {
				break
			}
		}
		c.replace(false, size)
		s = c.a.Add(key, entry{size: size}) // seg 0 is arcT1
		c.a.pushFront(&c.t1, s)
	}
	c.trimDirectory()
}

// trimDirectory bounds the whole cache directory (resident + ghosts) at
// 2x capacity in bytes, shedding frequency history before recency
// history.
func (c *ARC) trimDirectory() {
	for c.totalBytes() > 2*c.capacity {
		if !c.b2.Empty() {
			c.dropGhost(&c.b2)
		} else if !c.b1.Empty() {
			c.dropGhost(&c.b1)
		} else {
			return
		}
	}
}

// replace frees space for an incoming object of the given size by moving
// victims from T1 or T2 to the corresponding ghost list, per the ARC
// REPLACE routine. inB2 biases the tie toward evicting from T1.
func (c *ARC) replace(inB2 bool, size int64) {
	for c.t1.Bytes+c.t2.Bytes+size > c.capacity {
		fromT1 := !c.t1.Empty() &&
			(c.t1.Bytes > c.p || (inB2 && c.t1.Bytes == c.p) || c.t2.Empty())
		if fromT1 {
			c.ghost(&c.t1, &c.b1, arcB1)
		} else if !c.t2.Empty() {
			c.ghost(&c.t2, &c.b2, arcB2)
		} else {
			return
		}
	}
}

// ghost moves the LRU entry of resident list from to the MRU end of
// ghost list to, whose id is seg, and reports the eviction.
func (c *ARC) ghost(from, to *dlist, seg int8) {
	v := from.Tail
	c.a.unlink(from, v)
	c.a.Val(v).seg = seg
	c.a.pushFront(to, v)
	c.evicted(c.a.Key(v))
}

// dropGhost removes the LRU entry of a ghost list entirely.
func (c *ARC) dropGhost(l *dlist) {
	c.a.evictBack(l)
}

func (c *ARC) listOf(seg int8) *dlist {
	switch seg {
	case arcT1:
		return &c.t1
	case arcT2:
		return &c.t2
	case arcB1:
		return &c.b1
	default:
		return &c.b2
	}
}

func (c *ARC) totalBytes() int64 {
	return c.t1.Bytes + c.t2.Bytes + c.b1.Bytes + c.b2.Bytes
}

// Contains implements Policy (resident lists only).
func (c *ARC) Contains(key uint64) bool {
	s := c.a.Lookup(key)
	return s != nilSlot && c.a.Val(s).seg <= arcT2
}

// Len implements Policy.
func (c *ARC) Len() int { return c.t1.N + c.t2.N }

// Used implements Policy.
func (c *ARC) Used() int64 { return c.t1.Bytes + c.t2.Bytes }

// Cap implements Policy.
func (c *ARC) Cap() int64 { return c.capacity }

// Target returns the current adaptation target p in bytes (for tests
// and introspection).
func (c *ARC) Target() int64 { return c.p }

// GhostBytes returns the byte volume of the B1 and B2 ghost lists.
func (c *ARC) GhostBytes() (b1, b2 int64) { return c.b1.Bytes, c.b2.Bytes }
