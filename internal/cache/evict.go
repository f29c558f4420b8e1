package cache

// EvictNotifier is the optional eviction-reporting side of Policy:
// policies that can tell a lower layer the moment a resident object
// leaves implement it, so a store holding the object's bytes can drop
// them then instead of probing Contains for everything it holds.
//
// The callback fires once for every resident the policy itself pushes
// out to make room — an LRU/FIFO/SLRU tail eviction, an ARC T1/T2 entry
// turned ghost (or dropped outright), a LIRS resident-HIR leaving the
// queue, Belady's farthest-next-access victim — with Contains(key)
// already false. It does not fire for ghost or history pruning (those
// objects left earlier) nor for Remove (the caller asked; it knows).
// Admit + the callback + Remove therefore account for the resident set
// exactly.
//
// fn runs inside the policy's mutation, under whatever lock guards it
// (Sharded's stripe lock): it must be quick and must never call back
// into the policy.
type EvictNotifier interface {
	// SetEvictNotify installs fn, replacing any previous callback; nil
	// uninstalls. It reports whether the policy reports every eviction:
	// false means nothing was installed and the caller must find another
	// way to learn of evictions.
	SetEvictNotify(fn func(key uint64)) bool
}

// evictHook is the EvictNotifier every single-threaded policy embeds.
type evictHook struct {
	onEvict func(key uint64)
}

// SetEvictNotify implements EvictNotifier.
func (h *evictHook) SetEvictNotify(fn func(key uint64)) bool {
	h.onEvict = fn
	return true
}

// evicted reports one resident's departure.
func (h *evictHook) evicted(key uint64) {
	if h.onEvict != nil {
		h.onEvict(key)
	}
}

// SetEvictNotify implements EvictNotifier, installing fn on every
// stripe under that stripe's lock — which is also the lock fn later
// runs under. All stripes take the callback or none does: a stripe
// policy that cannot notify leaves the whole front reporting false.
func (s *Sharded) SetEvictNotify(fn func(key uint64)) bool {
	for i := range s.shards {
		if !s.shards[i].setEvictNotify(fn) {
			for j := 0; j < i; j++ {
				s.shards[j].setEvictNotify(nil)
			}
			return false
		}
	}
	return true
}

func (sh *shardSlot) setEvictNotify(fn func(key uint64)) bool {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	n, ok := sh.p.(EvictNotifier)
	return ok && n.SetEvictNotify(fn)
}

var (
	_ EvictNotifier = (*LRU)(nil)
	_ EvictNotifier = (*FIFO)(nil)
	_ EvictNotifier = (*SLRU)(nil)
	_ EvictNotifier = (*ARC)(nil)
	_ EvictNotifier = (*LIRS)(nil)
	_ EvictNotifier = (*Belady)(nil)
	_ EvictNotifier = (*Sharded)(nil)
)
