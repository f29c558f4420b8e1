package cache

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"
)

// policyDigests pins every observable of every policy over a seeded
// operation stream: each Get/Contains/Remove result, each eviction the
// policy reports (in order), Len and Used after every operation, the
// policy-specific accounting, and the final Range order. A change to a
// policy's data layout must leave these bit-identical; a change to its
// behaviour must update them and say why. (The LIRS values at 8 and 40
// bytes changed once, when re-admitting a ghost that making room had
// just pruned stopped corrupting the ghost FIFO; see
// TestLIRSReadmitPrunedGhost.)
var policyDigests = map[string]uint64{
	"lru@8":           0x43ca98f322493f4b,
	"lru@40":          0x1cc3b242ed682ad8,
	"lru@300":         0x2d0421a44b07278b,
	"fifo@8":          0x414a584a1be51a87,
	"fifo@40":         0x6590451bf76ccb25,
	"fifo@300":        0x45824f4b94adc3e8,
	"s3lru@8":         0xd7a1e39ed1e8668f,
	"s3lru@40":        0x9372c8dee2d18e0d,
	"s3lru@300":       0xbe7163f0d9c65f0e,
	"arc@8":           0x5fb62d22a3212136,
	"arc@40":          0xe985afa10eb7478a,
	"arc@300":         0x54de293162edab51,
	"lirs@8":          0x1c090b8120244c50,
	"lirs@40":         0x54968d4c98fbe49b,
	"lirs@300":        0x0e2712a48637ec98,
	"belady@8":        0x0d4c541cb092883b,
	"belady@40":       0xd61ecb8035c2e55d,
	"belady@300":      0x13f252e71bc7d5fb,
	"sharded-lru@8":   0x8485c7daa24ea62b,
	"sharded-lru@40":  0x20419ab47ac2de9a,
	"sharded-lru@300": 0x647f2b82cd9619cc,
}

// digestOps is the length of each digested stream.
const digestOps = 20000

// splitmix64 is a tiny seeded generator, so the stream does not depend
// on math/rand's algorithm.
type splitmix64 uint64

func (s *splitmix64) next() uint64 {
	*s += 0x9e3779b97f4a7c15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// digestStream returns the keys, sizes and operation codes of an n-long
// stream for capacity c: keys drawn from a space about three capacities wide at
// the mean size, so hits, evictions, ghost hits and re-admissions all
// happen.
func digestStream(c int64, n int) (keys []uint64, sizes []int64, ops []uint8) {
	rng := splitmix64(uint64(c))
	space := uint64(3*c/8 + 4)
	for i := 0; i < n; i++ {
		r := rng.next()
		key := (r >> 8) % space
		if r&0xff < 96 { // a hot quarter of the key space
			key %= space/4 + 1
		}
		keys = append(keys, key)
		// Sizes depend on the key so a re-admission usually repeats its
		// size; one in sixteen requests changes it.
		size := int64(1 + (key*2654435761>>7)%15)
		if (r>>40)&15 == 0 {
			size = int64(1 + (r>>44)%31)
		}
		sizes = append(sizes, size)
		ops = append(ops, uint8((r>>56)%20))
	}
	return keys, sizes, ops
}

// nextAccess is trace.BuildNextAccess over keys (not imported, to keep
// this package's tests dependency-free).
func nextAccess(keys []uint64) []int {
	next := make([]int, len(keys))
	last := map[uint64]int{}
	for i := len(keys) - 1; i >= 0; i-- {
		if j, ok := last[keys[i]]; ok {
			next[i] = j
		} else {
			next[i] = -1
		}
		last[keys[i]] = i
	}
	return next
}

// policyDigest drives p through the stream and folds everything it
// reports into one FNV-64a sum.
func policyDigest(p Policy, keys []uint64, sizes []int64, ops []uint8) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	p.SetEvictNotify(func(key uint64) { put(key ^ 0xe51c7ed) })
	for i, key := range keys {
		switch op := ops[i]; {
		case op < 14: // a request: Get, and Admit on a miss
			hit := p.Get(key, i)
			flag(hit)
			if !hit {
				p.Admit(key, sizes[i], i)
			}
		case op < 16:
			flag(p.Contains(key))
		case op < 18:
			flag(p.(Remover).Remove(key))
		default: // a bare Admit, resident or not
			p.Admit(key, sizes[i], i)
		}
		put(uint64(p.Len()))
		put(uint64(p.Used()))
		digestAccounting(p, put)
	}
	if r, ok := p.(Ranger); ok {
		r.Range(func(key uint64, size int64) bool {
			put(key)
			put(uint64(size))
			return true
		})
	}
	return h.Sum64()
}

// digestAccounting folds the policy-specific state the Policy interface
// does not expose.
func digestAccounting(p Policy, put func(uint64)) {
	switch c := p.(type) {
	case *ARC:
		b1, b2 := c.GhostBytes()
		put(uint64(c.Target()))
		put(uint64(b1))
		put(uint64(b2))
	case *LIRS:
		put(uint64(c.LIRBytes()))
		put(uint64(c.HIRBytes()))
		put(uint64(c.GhostBytes()))
	case *SLRU:
		for i := 0; i < 3; i++ {
			put(uint64(c.SegmentBytes(i)))
		}
	}
}

// TestPolicyDigests is the layout contract of the policies: at three
// capacities (about one object, a handful, a few dozen) every policy
// must report exactly what it always has.
func TestPolicyDigests(t *testing.T) {
	for _, c := range []int64{8, 40, 300} {
		keys, sizes, ops := digestStream(c, digestOps)
		next := nextAccess(keys)
		for _, name := range append(Names(), "sharded-lru") {
			var p Policy
			if name == "sharded-lru" {
				s, err := NewSharded(c*4, 4, func(per int64) Policy { return NewLRU(per) })
				if err != nil {
					t.Fatal(err)
				}
				p = s
			} else {
				var err error
				if p, err = New(name, c, next); err != nil {
					t.Fatal(err)
				}
			}
			id := fmt.Sprintf("%s@%d", name, c)
			if got, want := policyDigest(p, keys, sizes, ops), policyDigests[id]; got != want {
				t.Errorf("%s: digest %#016x, want %#016x", id, got, want)
			}
		}
	}
}
