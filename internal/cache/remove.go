package cache

// Remover is the optional removal side of Policy: policies that can
// drop one resident object by key implement it so upper layers can
// evict a "phantom resident" — an object the policy still counts but
// whose backing bytes are gone (a flash extent dropped for corruption
// or an uncorrectable read). Remove reports whether the key was
// resident; removing an absent (or ghost-only) key is a no-op.
//
// Remove is an out-of-band eviction, not an access: it must not touch
// recency/frequency state for other objects, and for the adaptive
// policies (ARC, LIRS) the removed object leaves no ghost — the object
// did not age out, its bytes died, so it should not steer adaptation.
//
// Like every other Policy method, Remove on the bare single-threaded
// policies must not race with concurrent mutation; Sharded serializes
// per shard.
type Remover interface {
	Remove(key uint64) bool
}

// Remove implements Remover.
func (c *LRU) Remove(key uint64) bool {
	return removeFrom(&c.a, &c.list, key)
}

// Remove implements Remover.
func (c *FIFO) Remove(key uint64) bool {
	return removeFrom(&c.a, &c.list, key)
}

// removeFrom drops key from a single-list policy's arena and list.
func removeFrom(a *arena, l *dlist, key uint64) bool {
	s := a.Lookup(key)
	if s == nilSlot {
		return false
	}
	a.unlink(l, s)
	a.Del(s)
	return true
}

// Remove implements Remover.
func (c *SLRU) Remove(key uint64) bool {
	s := c.a.Lookup(key)
	if s == nilSlot {
		return false
	}
	c.a.unlink(&c.segs[c.a.Val(s).seg], s)
	c.a.Del(s)
	return true
}

// Remove implements Remover. Only resident (T1/T2) entries are
// removable; ghost entries are history, not residency, and stay.
func (c *ARC) Remove(key uint64) bool {
	s := c.a.Lookup(key)
	if s == nilSlot || c.a.Val(s).seg > arcT2 {
		return false
	}
	c.a.unlink(c.listOf(c.a.Val(s).seg), s)
	c.a.Del(s)
	return true
}

// Remove implements Remover. A removed LIR or resident-HIR object is
// forgotten entirely (no ghost), and the stack invariant is re-pruned.
func (c *LIRS) Remove(key uint64) bool {
	x := c.a.Lookup(key)
	if x == nilSlot || c.a.Val(x).seg == stateHIRNonResident {
		return false
	}
	switch n := c.a.Val(x); n.seg {
	case stateLIR:
		c.lirBytes -= n.size
		c.popStack(x)
	case stateHIRResident:
		c.dequeue(&c.queue, x)
		if n.inStack {
			c.popStack(x)
		}
	}
	c.a.Del(x)
	// Removing a bottom LIR object can leave HIR entries at the stack
	// bottom; restore the invariant.
	c.prune()
	return true
}

// Remove implements Remover. Heap entries for the removed key go stale
// and are discarded lazily by evictFarthest, the same way overwritten
// priorities are.
func (c *Belady) Remove(key uint64) bool {
	it, ok := c.items[key]
	if !ok {
		return false
	}
	c.used -= it.size
	delete(c.items, key)
	return true
}

// Remove implements Remover, delegating under the key's shard lock.
// Shards whose policy does not implement Remover report false.
func (s *Sharded) Remove(key uint64) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return remove(sh.p, key)
}

// Remove implements Remover, delegating to the key's stripe.
func (u *Unlocked) Remove(key uint64) bool { return remove(u.stripe(key), key) }

// remove removes key from p, or reports false when p cannot remove.
func remove(p Policy, key uint64) bool {
	r, ok := p.(Remover)
	return ok && r.Remove(key)
}

var (
	_ Remover = (*LRU)(nil)
	_ Remover = (*FIFO)(nil)
	_ Remover = (*SLRU)(nil)
	_ Remover = (*ARC)(nil)
	_ Remover = (*LIRS)(nil)
	_ Remover = (*Belady)(nil)
	_ Remover = (*Sharded)(nil)
	_ Remover = (*Unlocked)(nil)
)
