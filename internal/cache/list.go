package cache

import "math/bits"

// The list policies (LRU, FIFO, SLRU, ARC, LIRS) keep their entries in
// an arena instead of a map of heap nodes: one slice of nodes addressed
// by int32 slot numbers, recency lists threaded through a parallel slice
// of int32 links, and an open-addressing index to find a key's slot.
// Nothing in it is a pointer, so once the arena has grown to the working
// set an Admit allocates nothing and the garbage collector never scans
// the resident set. Under Sharded both costs used to be paid inside the
// stripe lock.

// nilSlot ends a list and marks an empty index bucket. Slot 0 is never
// handed out, so the zero dlist, link and index bucket are all empty.
const nilSlot int32 = 0

// node is one arena slot.
type node struct {
	key  uint64
	size int64
	// seg is policy-specific: the segment index for SLRU, the ARC list
	// id, or the LIRS state.
	seg int8
	// inStack records LIRS's membership of its recency stack.
	inStack bool
}

// link is a slot's place in one doubly linked list.
type link struct{ prev, next int32 }

// arena is the slot store and key index shared by the list policies. It
// grows to the largest number of keys ever held at once and never
// shrinks; freed slots are reused first.
type arena struct {
	nodes []node
	links []link
	free  int32 // first freed slot, chained through links[].next
	// index holds one bucket per power-of-two position, at most half of
	// them used. A used bucket is the top half of its key's Fibonacci
	// hash over the key's slot number: the hash half gives the home
	// bucket and filters probes without reading the node, the slot half
	// is never nilSlot, so an empty bucket is 0.
	index []uint64
	shift uint // 64 - log2(len(index)); more than 32
	n     int  // slots in use
}

// hashHi is the hash half of an index bucket.
const hashHi uint64 = 0xffffffff_00000000

// hash is key's Fibonacci hash.
func hash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

const (
	// minBuckets is the index size of the first insert.
	minBuckets = 16
	// maxSlots keeps the index at most 2^31 buckets, so a bucket's hash
	// half always covers the home bits.
	maxSlots = 1 << 30
)

// lookup returns key's slot, or nilSlot.
func (a *arena) lookup(key uint64) int32 {
	_, s := a.find(key)
	return s
}

// add stores a key that is not present and returns its slot; the slot's
// links are zero.
func (a *arena) add(key uint64, size int64) int32 {
	if 2*(a.n+1) > len(a.index) {
		a.grow()
	}
	pos, _ := a.find(key)
	s := a.free
	if s != nilSlot {
		a.free = a.links[s].next
		a.links[s] = link{}
	} else {
		if len(a.nodes) == 0 {
			a.nodes, a.links = make([]node, 1, minBuckets/2), make([]link, 1, minBuckets/2)
		}
		if len(a.nodes) > maxSlots {
			panic("cache: more than 2^30 entries in one policy")
		}
		s = int32(len(a.nodes))
		a.nodes = append(a.nodes, node{})
		a.links = append(a.links, link{})
	}
	a.nodes[s] = node{key: key, size: size}
	a.index[pos] = hash(key)&hashHi | uint64(s)
	a.n++
	return s
}

// del forgets slot s and frees it. The caller has already unlinked it
// from every list.
func (a *arena) del(s int32) {
	pos, _ := a.find(a.nodes[s].key)
	// Backward-shift deletion: walk the cluster after the hole and move
	// back every entry whose home bucket does not lie in (hole, j], so
	// each remaining key stays reachable from its home without
	// tombstones.
	mask := len(a.index) - 1
	for j := (pos + 1) & mask; a.index[j] != 0; j = (j + 1) & mask {
		if (j-a.home(a.index[j]))&mask >= (j-pos)&mask {
			a.index[pos] = a.index[j]
			pos = j
		}
	}
	a.index[pos] = 0
	a.links[s] = link{next: a.free}
	a.free = s
	a.n--
}

// home is the preferred bucket of a hash, or of a used bucket.
func (a *arena) home(h uint64) int { return int(h >> a.shift) }

// find returns key's bucket and slot, or, when key is absent, the empty
// bucket where it would go and nilSlot. The index is at most half full,
// so the probe always ends; an arena that never stored anything has no
// index and reports every key absent.
func (a *arena) find(key uint64) (int, int32) {
	if len(a.index) == 0 {
		return 0, nilSlot
	}
	h := hash(key)
	mask := len(a.index) - 1
	for i := a.home(h); ; i = (i + 1) & mask {
		b := a.index[i]
		if b == 0 {
			return i, nilSlot
		}
		if b&hashHi == h&hashHi {
			if s := int32(uint32(b)); a.nodes[s].key == key {
				return i, s
			}
		}
	}
}

// grow doubles the index (or creates it) and reinserts every live slot.
func (a *arena) grow() {
	old := a.index
	buckets := max(minBuckets, 2*len(old))
	a.index = make([]uint64, buckets)
	a.shift = uint(64 - bits.TrailingZeros(uint(buckets)))
	mask := buckets - 1
	for _, b := range old {
		if b == 0 {
			continue
		}
		i := a.home(b)
		for a.index[i] != 0 {
			i = (i + 1) & mask
		}
		a.index[i] = b
	}
}

// dlist is a doubly linked list of arena slots with byte accounting,
// threaded through one link slice. front = most recently used end;
// back = eviction end.
type dlist struct {
	head, tail int32
	n          int
	bytes      int64
}

// pushFront inserts slot s of the given size at the MRU end.
func (l *dlist) pushFront(ln []link, s int32, size int64) {
	ln[s] = link{next: l.head}
	if l.head != nilSlot {
		ln[l.head].prev = s
	} else {
		l.tail = s
	}
	l.head = s
	l.n++
	l.bytes += size
}

// remove unlinks slot s of the given size.
func (l *dlist) remove(ln []link, s int32, size int64) {
	p, n := ln[s].prev, ln[s].next
	if p != nilSlot {
		ln[p].next = n
	} else {
		l.head = n
	}
	if n != nilSlot {
		ln[n].prev = p
	} else {
		l.tail = p
	}
	ln[s] = link{}
	l.n--
	l.bytes -= size
}

// empty reports whether the list has no entries.
func (l *dlist) empty() bool { return l.n == 0 }

// pushFront inserts slot s at l's MRU end through the arena's links.
func (a *arena) pushFront(l *dlist, s int32) { l.pushFront(a.links, s, a.nodes[s].size) }

// unlink removes slot s from l.
func (a *arena) unlink(l *dlist, s int32) { l.remove(a.links, s, a.nodes[s].size) }

// moveToFront relocates slot s, already in l, to its MRU end. The
// list's counts do not change, so the node is not read.
func (a *arena) moveToFront(l *dlist, s int32) {
	if l.head == s {
		return
	}
	ln := a.links
	p, n := ln[s].prev, ln[s].next // p is set: s is not the head
	ln[p].next = n
	if n != nilSlot {
		ln[n].prev = p
	} else {
		l.tail = p
	}
	ln[s] = link{next: l.head}
	ln[l.head].prev = s
	l.head = s
}

// evictBack removes l's eviction-end slot from l and the arena and
// returns its key. l must not be empty.
func (a *arena) evictBack(l *dlist) uint64 {
	s := l.tail
	key := a.nodes[s].key
	a.unlink(l, s)
	a.del(s)
	return key
}
