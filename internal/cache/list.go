package cache

import "otacache/internal/slab"

// The list policies (LRU, FIFO, SLRU, ARC, LIRS) keep their entries in
// a slab.Arena instead of a map of heap nodes, with their recency lists
// threaded through its int32 links. Nothing in it is a pointer, so once
// the arena has grown to the working set an Admit allocates nothing and
// the garbage collector never scans the resident set; under Sharded
// either cost would be paid inside the stripe lock.

// nilSlot ends a list and marks an absent key.
const nilSlot = slab.Nil

// entry is a list policy's payload in its arena slot.
type entry struct {
	size int64
	// seg is policy-specific: the segment index for SLRU, the ARC list
	// id, or the LIRS state.
	seg int8
	// inStack records LIRS's membership of its recency stack.
	inStack bool
}

// dlist is a recency list of arena slots; Bytes sums their sizes.
type dlist = slab.List

// arena is the slab with the list policies' payload. Its list helpers
// weigh every slot by its size, so each list's Bytes is the policy's
// byte accounting.
type arena struct{ slab.Arena[entry] }

// pushFront inserts slot s at l's MRU end.
func (a *arena) pushFront(l *dlist, s int32) { l.PushFront(a.Links(), s, a.Val(s).size) }

// unlink removes slot s from l.
func (a *arena) unlink(l *dlist, s int32) { l.Unlink(a.Links(), s, a.Val(s).size) }

// moveToFront relocates slot s, already in l, to its MRU end.
func (a *arena) moveToFront(l *dlist, s int32) { l.MoveToFront(a.Links(), s) }

// evictBack removes l's eviction-end slot from l and the arena and
// returns its key. l must not be empty.
func (a *arena) evictBack(l *dlist) uint64 { return a.EvictBack(l, a.Val(l.Tail).size) }
