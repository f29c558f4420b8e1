// Package slab is the keyed slot store under the list cache policies
// and the admission history table: one slice of slots addressed by
// int32 numbers, doubly linked lists threaded through a parallel slice
// of int32 links, and an open-addressing index to find a key's slot.
// Nothing in it is a pointer as long as the payload holds none, so the
// garbage collector never scans the stored set, and once an arena has
// grown to its working set (or was made with its capacity) no operation
// allocates.
package slab

import (
	"iter"
	"math/bits"
	"unsafe"
)

// Nil ends a list and marks an empty index bucket. Slot 0 is never
// handed out, so the zero List, Link and index bucket are all empty.
const Nil int32 = 0

// node is one slot: its key and the user's payload.
type node[P any] struct {
	key uint64
	val P
}

// Link is a slot's place in one doubly linked list.
type Link struct{ Prev, Next int32 }

// Arena is the slot store and key index. The zero Arena is empty and
// grows to the largest number of keys ever held at once; Make sizes it
// for a fixed bound up front. It never shrinks, and freed slots are
// reused first.
type Arena[P any] struct {
	nodes []node[P]
	links []Link
	free  int32 // first freed slot, chained through links[].Next
	// index holds one bucket per power-of-two position, at most half of
	// them used. A used bucket is the top half of its key's Fibonacci
	// hash over the key's slot number: the hash half gives the home
	// bucket and filters probes without reading the node, the slot half
	// is never Nil, so an empty bucket is 0.
	index []uint64
	shift uint // 64 - log2(len(index)); more than 32
	n     int  // slots in use
}

// hashHi is the hash half of an index bucket.
const hashHi uint64 = 0xffffffff_00000000

// hash is key's Fibonacci hash.
func hash(key uint64) uint64 { return key * 0x9e3779b97f4a7c15 }

const (
	// minBuckets is the smallest index.
	minBuckets = 16
	// MaxSlots keeps the index at most 2^31 buckets, so a bucket's hash
	// half always covers the home bits.
	MaxSlots = 1 << 30
)

// Make returns an empty arena that holds up to capacity keys without
// allocating again. capacity must be in [0, MaxSlots].
func Make[P any](capacity int) Arena[P] {
	var a Arena[P]
	a.nodes = make([]node[P], 1, capacity+1)
	a.links = make([]Link, 1, capacity+1)
	buckets := minBuckets
	for buckets < 2*capacity {
		buckets <<= 1
	}
	a.resize(buckets)
	return a
}

// Len returns the number of stored keys.
func (a *Arena[P]) Len() int { return a.n }

// Key returns slot s's key.
func (a *Arena[P]) Key(s int32) uint64 { return a.nodes[s].key }

// Val returns slot s's payload.
func (a *Arena[P]) Val(s int32) *P { return &a.nodes[s].val }

// Links returns the arena's own link slice, one Link per slot. Lists
// that need a second link per slot keep their own slice, grown to this
// one's length.
func (a *Arena[P]) Links() []Link { return a.links }

// Footprint returns the bytes the arena's slices hold: a node and a
// Link for every slot of capacity and a bucket of the index, in use or
// not.
func (a *Arena[P]) Footprint() int {
	return cap(a.nodes)*int(unsafe.Sizeof(node[P]{})) + cap(a.links)*int(unsafe.Sizeof(Link{})) + cap(a.index)*8
}

// Lookup returns key's slot, or Nil. The index is at most half full,
// so the probe ends at an empty bucket. The n check keeps a zero Arena,
// which has no index, from probing. (Lookup is on every request path;
// as written it fits the compiler's inlining budget.)
func (a *Arena[P]) Lookup(key uint64) int32 {
	h := hash(key)
	for i := a.home(h); a.n > 0; i = (i + 1) & (len(a.index) - 1) {
		b := a.index[i]
		if b == 0 {
			break
		}
		// The hash halves match, then the keys.
		if (b^h)&hashHi == 0 && a.nodes[uint32(b)].key == key {
			return int32(uint32(b))
		}
	}
	return Nil
}

// Add stores a key that is not present and returns its slot; the slot's
// links are zero.
func (a *Arena[P]) Add(key uint64, val P) int32 {
	if a.nodes == nil {
		// Slot 0 and seven keys: the 16-bucket index's share.
		*a = Make[P](minBuckets/2 - 1)
	}
	if 2*(a.n+1) > len(a.index) {
		a.resize(2 * len(a.index))
	}
	pos := a.vacant(hash(key))
	s := a.free
	if s != Nil {
		a.free = a.links[s].Next
		a.links[s] = Link{}
	} else {
		if len(a.nodes) > MaxSlots {
			panic("slab: more than 2^30 keys in one arena")
		}
		s = int32(len(a.nodes))
		a.nodes = append(a.nodes, node[P]{})
		a.links = append(a.links, Link{})
	}
	a.nodes[s] = node[P]{key: key, val: val}
	a.index[pos] = hash(key)&hashHi | uint64(s)
	a.n++
	return s
}

// Del forgets slot s and frees it. The caller has already unlinked it
// from every list.
func (a *Arena[P]) Del(s int32) {
	// Find s's bucket by slot number, which reads no other slot's key.
	mask := len(a.index) - 1
	pos := a.home(hash(a.nodes[s].key))
	for int32(uint32(a.index[pos])) != s {
		pos = (pos + 1) & mask
	}
	// Backward-shift deletion: walk the cluster after the hole and move
	// back every entry whose home bucket does not lie in (hole, j], so
	// each remaining key stays reachable from its home without
	// tombstones.
	for j := (pos + 1) & mask; a.index[j] != 0; j = (j + 1) & mask {
		if (j-a.home(a.index[j]))&mask >= (j-pos)&mask {
			a.index[pos] = a.index[j]
			pos = j
		}
	}
	a.index[pos] = 0
	a.links[s] = Link{Next: a.free}
	a.free = s
	a.n--
}

// home is the preferred bucket of a hash, or of a used bucket.
func (a *Arena[P]) home(h uint64) int { return int(h >> a.shift) }

// vacant returns the first empty bucket from h's home on: where a key
// with hash h that is not in the index goes.
func (a *Arena[P]) vacant(h uint64) int {
	mask := len(a.index) - 1
	i := a.home(h)
	for a.index[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// resize replaces the index with one of the given power-of-two size and
// reinserts every live slot.
func (a *Arena[P]) resize(buckets int) {
	old := a.index
	a.index = make([]uint64, buckets)
	a.shift = uint(64 - bits.TrailingZeros(uint(buckets)))
	for _, b := range old {
		if b != 0 {
			a.index[a.vacant(b)] = b
		}
	}
}

// EvictBack removes l's back slot, of the given size, from l and the
// arena and returns its key. l must not be empty.
func (a *Arena[P]) EvictBack(l *List, size int64) uint64 {
	s := l.Tail
	key := a.nodes[s].key
	l.Unlink(a.links, s, size)
	a.Del(s)
	return key
}

// List is a doubly linked list of slots threaded through one link
// slice, with a count and a byte total. The front is the most recently
// inserted (or used) end, the back the eviction end. The caller passes
// a slot's size whenever it links or unlinks it, so the payload stays
// opaque here; a list that does not weigh its slots passes 0.
type List struct {
	Head, Tail int32
	N          int
	Bytes      int64
}

// PushFront inserts slot s of the given size at l's front.
func (l *List) PushFront(ln []Link, s int32, size int64) {
	ln[s] = Link{Next: l.Head}
	if l.Head != Nil {
		ln[l.Head].Prev = s
	} else {
		l.Tail = s
	}
	l.Head = s
	l.N++
	l.Bytes += size
}

// Unlink removes slot s of the given size from l.
func (l *List) Unlink(ln []Link, s int32, size int64) {
	p, n := ln[s].Prev, ln[s].Next
	if p != Nil {
		ln[p].Next = n
	} else {
		l.Head = n
	}
	if n != Nil {
		ln[n].Prev = p
	} else {
		l.Tail = p
	}
	ln[s] = Link{}
	l.N--
	l.Bytes -= size
}

// MoveToFront relocates slot s, already in l, to its front. The list's
// counts do not change.
func (l *List) MoveToFront(ln []Link, s int32) {
	if l.Head == s {
		return
	}
	p, n := ln[s].Prev, ln[s].Next // p is set: s is not the head
	ln[p].Next = n
	if n != Nil {
		ln[n].Prev = p
	} else {
		l.Tail = p
	}
	ln[s] = Link{Next: l.Head}
	ln[l.Head].Prev = s
	l.Head = s
}

// Empty reports whether l has no slots.
func (l *List) Empty() bool { return l.N == 0 }

// Backward visits l's slots from the back to the front.
func (l *List) Backward(ln []Link) iter.Seq[int32] {
	return func(yield func(int32) bool) {
		for s := l.Tail; s != Nil && yield(s); s = ln[s].Prev {
		}
	}
}
