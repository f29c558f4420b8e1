package cache

import (
	"fmt"
	"sync"
)

// Sharded is a thread-safe cache front that partitions the key space
// over independent single-threaded policies, one lock per shard. It is
// how a production cache server (the paper's OC/DC nodes serve many
// concurrent downloads) would deploy the policies in this package,
// which are deliberately lock-free single-threaded implementations.
//
// Keys are routed by a 64-bit multiplicative hash, so each shard sees a
// uniform slice of the keyspace and gets an equal share of the byte
// capacity. Hit/miss behaviour of a shard equals that of its policy
// over the key subsequence routed to it.
type Sharded struct {
	shards []shardSlot
	mask   uint64
}

type shardSlot struct {
	mu sync.Mutex
	p  Policy
	// padding keeps adjacent locks off one cache line under contention.
	_ [40]byte
}

// NewSharded builds a sharded cache with n shards (rounded up to a
// power of two, minimum 1), each holding capacity/n bytes produced by
// factory.
func NewSharded(capacity int64, n int, factory func(shardCapacity int64) Policy) (*Sharded, error) {
	if capacity <= 0 {
		return nil, fmt.Errorf("cache: sharded capacity must be positive, got %d", capacity)
	}
	if factory == nil {
		return nil, fmt.Errorf("cache: nil shard factory")
	}
	if n < 1 {
		n = 1
	}
	pow := 1
	for pow < n {
		pow <<= 1
	}
	s := &Sharded{shards: make([]shardSlot, pow), mask: uint64(pow - 1)}
	per := capacity / int64(pow)
	if per < 1 {
		per = 1
	}
	for i := range s.shards {
		p := factory(per)
		if p == nil {
			return nil, fmt.Errorf("cache: shard factory returned nil for shard %d", i)
		}
		s.shards[i].p = p
	}
	return s, nil
}

// fibmix is a Fibonacci multiplicative hash spreading low-entropy keys
// across shards.
func fibmix(key uint64) uint64 {
	h := key * 0x9e3779b97f4a7c15
	return h >> 32
}

func (s *Sharded) shardFor(key uint64) *shardSlot {
	return &s.shards[fibmix(key)&s.mask]
}

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// Name implements Policy. The shard lock is held for the delegated
// Name call: Policy implementations are free to read mutable state
// there, so an unlocked read would race with concurrent Get/Admit.
func (s *Sharded) Name() string {
	sh := &s.shards[0]
	sh.mu.Lock()
	name := sh.p.Name()
	sh.mu.Unlock()
	return fmt.Sprintf("sharded-%d-%s", len(s.shards), name)
}

// Get implements Policy.
func (s *Sharded) Get(key uint64, tick int) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.p.Get(key, tick)
}

// Admit implements Policy.
func (s *Sharded) Admit(key uint64, size int64, tick int) {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.p.Admit(key, size, tick)
}

// Insert admits key as Admit does and reports whether this call made it
// resident: false when the key was resident already (a concurrent
// request admitted it first) or the policy rejected it. The check and
// the admission share one stripe acquisition, so of concurrent callers
// admitting one key exactly one sees true.
func (s *Sharded) Insert(key uint64, size int64, tick int) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if sh.p.Contains(key) {
		return false
	}
	sh.p.Admit(key, size, tick)
	return sh.p.Contains(key)
}

// Contains implements Policy.
func (s *Sharded) Contains(key uint64) bool {
	sh := s.shardFor(key)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	return sh.p.Contains(key)
}

// Len implements Policy.
func (s *Sharded) Len() int {
	n := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		n += s.shards[i].p.Len()
		s.shards[i].mu.Unlock()
	}
	return n
}

// Used implements Policy.
func (s *Sharded) Used() int64 {
	var b int64
	for i := range s.shards {
		s.shards[i].mu.Lock()
		b += s.shards[i].p.Used()
		s.shards[i].mu.Unlock()
	}
	return b
}

// Cap implements Policy.
func (s *Sharded) Cap() int64 {
	var b int64
	for i := range s.shards {
		b += s.shards[i].p.Cap()
	}
	return b
}

// Unlocked returns a view of s that takes no stripe lock: the same
// stripes, routing and capacity split, so it decides exactly as s does.
// Its caller serializes every use of the view against every other use
// of the stripes, s's own locked methods included. An engine with a
// flash store attached drives its policy through this view under its
// shard lock, the one lock such a shard takes.
func (s *Sharded) Unlocked() *Unlocked { return (*Unlocked)(s) }

// Unlocked is Sharded without the stripe locks; see Sharded.Unlocked.
type Unlocked Sharded

func (u *Unlocked) stripe(key uint64) Policy { return (*Sharded)(u).shardFor(key).p }

// Name implements Policy.
func (u *Unlocked) Name() string { return (*Sharded)(u).Name() }

// Get implements Policy.
func (u *Unlocked) Get(key uint64, tick int) bool { return u.stripe(key).Get(key, tick) }

// Admit implements Policy.
func (u *Unlocked) Admit(key uint64, size int64, tick int) { u.stripe(key).Admit(key, size, tick) }

// Contains implements Policy.
func (u *Unlocked) Contains(key uint64) bool { return u.stripe(key).Contains(key) }

// Len implements Policy.
func (u *Unlocked) Len() int {
	n := 0
	for i := range u.shards {
		n += u.shards[i].p.Len()
	}
	return n
}

// Used implements Policy.
func (u *Unlocked) Used() int64 {
	var b int64
	for i := range u.shards {
		b += u.shards[i].p.Used()
	}
	return b
}

// Cap implements Policy.
func (u *Unlocked) Cap() int64 { return (*Sharded)(u).Cap() }

// SetEvictNotify implements Policy.
func (u *Unlocked) SetEvictNotify(fn func(key uint64)) {
	for i := range u.shards {
		u.shards[i].p.SetEvictNotify(fn)
	}
}

var (
	_ Policy = (*Sharded)(nil)
	_ Policy = (*Unlocked)(nil)
)
