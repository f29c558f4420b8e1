// Package cluster models the paper's distributed cache layer (§2.1):
// the Outside Cache consists of *many cache servers*, each holding a
// partition of the photo space. Photos are routed to servers by
// consistent hashing with virtual nodes.
//
// The ring routes keys to the shards of engine.ShardedEngine. Routing
// must be deterministic, not consistent: a snapshot restore re-routes
// every record through the restoring engine's ring, so a fleet that
// changes size between runs needs no minimal remapping, and the ring
// has no operation that grows or shrinks it.
package cluster

import (
	"fmt"
	"sort"

	"otacache/internal/stats"
)

// Ring is a consistent-hash ring with virtual nodes.
type Ring struct {
	points []ringPoint // sorted by hash
}

type ringPoint struct {
	hash   uint64
	server int32
}

// NewRing builds a ring over the given number of servers, each owning
// vnodes virtual points (vnodes <= 0 defaults to 64). seed fixes the
// point placement.
func NewRing(servers, vnodes int, seed uint64) (*Ring, error) {
	if servers <= 0 {
		return nil, fmt.Errorf("cluster: servers must be positive, got %d", servers)
	}
	if vnodes <= 0 {
		vnodes = 64
	}
	r := &Ring{points: make([]ringPoint, 0, servers*vnodes)}
	for s := 0; s < servers; s++ {
		// Each server's points come from its own RNG stream, so a
		// server id lands on the same points whatever the fleet size.
		rng := stats.NewRNG(seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15)
		for v := 0; v < vnodes; v++ {
			r.points = append(r.points, ringPoint{hash: rng.Uint64(), server: int32(s)})
		}
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// keyHash spreads keys uniformly around the ring.
func keyHash(key uint64) uint64 {
	x := key + 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Server returns the server owning key: the first ring point clockwise
// from the key's hash. The binary search is hand-rolled — this sits on
// the serving hot path of every sharded lookup, and sort.Search pays a
// closure call per probe.
func (r *Ring) Server(key uint64) int {
	h := keyHash(key)
	pts := r.points
	lo, hi := 0, len(pts)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if pts[mid].hash < h {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo == len(pts) {
		lo = 0
	}
	return int(pts[lo].server)
}
