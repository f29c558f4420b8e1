package cache

// evictHook holds the Policy.SetEvictNotify callback every
// single-threaded policy embeds.
type evictHook struct {
	onEvict func(key uint64)
}

// SetEvictNotify implements Policy.
func (h *evictHook) SetEvictNotify(fn func(key uint64)) { h.onEvict = fn }

// evicted reports one resident's departure.
func (h *evictHook) evicted(key uint64) {
	if h.onEvict != nil {
		h.onEvict(key)
	}
}

// SetEvictNotify implements Policy, installing fn on every stripe under
// that stripe's lock — which is also the lock fn later runs under.
func (s *Sharded) SetEvictNotify(fn func(key uint64)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.p.SetEvictNotify(fn)
		sh.mu.Unlock()
	}
}
