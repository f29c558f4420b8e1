// Package cluster models the paper's distributed cache layer (§2.1):
// the Outside Cache consists of *many cache servers*, each holding a
// partition of the photo space. Photos are routed to servers by
// consistent hashing with virtual nodes, so adding or losing a server
// remaps only ~1/n of the keyspace — the property that makes cache
// fleets operable.
//
// The ring routes keys to the shards of engine.ShardedEngine.
package cluster

import (
	"fmt"
	"sort"

	"otacache/internal/stats"
)

// Ring is a consistent-hash ring with virtual nodes.
type Ring struct {
	points []ringPoint // sorted by hash
	// servers counts the servers currently on the ring; ids bounds the
	// id space (removal leaves holes in it, growth extends it). The two
	// diverge after WithoutServer: a ring that lost server 1 of {0,1,2}
	// has servers == 2 but ids == 3, and the next WithServer joins as 3.
	servers int
	ids     int
	vnodes  int
	seed    uint64
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
	r := &Ring{servers: servers, ids: servers, vnodes: vnodes, seed: seed}
	r.points = make([]ringPoint, 0, servers*vnodes)
	for s := 0; s < servers; s++ {
		r.addPoints(int32(s))
	}
	sort.Slice(r.points, func(a, b int) bool { return r.points[a].hash < r.points[b].hash })
	return r, nil
}

// addPoints appends server s's virtual points (unsorted).
func (r *Ring) addPoints(s int32) {
	// Each server's points derive from a per-server RNG stream so that
	// the same server id always lands on the same points regardless of
	// fleet size — the key to minimal remapping.
	rng := stats.NewRNG(r.seed ^ (uint64(s)+1)*0x9e3779b97f4a7c15)
	for v := 0; v < r.vnodes; v++ {
		r.points = append(r.points, ringPoint{hash: rng.Uint64(), server: s})
	}
}

// Servers returns the fleet size: the number of servers currently on
// the ring, not the span of server ids ever issued.
func (r *Ring) Servers() int { return r.servers }

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

// WithoutServer returns a new ring with server s's points removed
// (simulating a server loss). Keys owned by other servers keep their
// placement — the consistent-hashing guarantee the tests verify.
func (r *Ring) WithoutServer(s int) (*Ring, error) {
	if s < 0 || s >= r.ids {
		return nil, fmt.Errorf("cluster: no server %d in an id space of %d", s, r.ids)
	}
	if r.servers == 1 {
		return nil, fmt.Errorf("cluster: cannot remove the last server")
	}
	nr := &Ring{servers: r.servers - 1, ids: r.ids, vnodes: r.vnodes, seed: r.seed}
	nr.points = make([]ringPoint, 0, len(r.points)-r.vnodes)
	for _, p := range r.points {
		if int(p.server) != s {
			nr.points = append(nr.points, p)
		}
	}
	if len(nr.points) == len(r.points) {
		// The id was valid but its points are gone: removing an
		// already-removed server would silently shrink the live count
		// below the true fleet and eventually empty the ring.
		return nil, fmt.Errorf("cluster: server %d is not on the ring", s)
	}
	return nr, nil
}

// WithServer returns a new ring grown by one server (id = one past the
// highest id ever issued), simulating fleet growth. Existing servers
// keep their virtual points — each server's points derive from its own
// RNG stream — so only the share of the keyspace that the new server
// takes over remaps. A replacement after WithoutServer joins as a NEW
// identity with fresh points, never as a resurrection of the removed
// id: its takeover is a fresh ~1/(n+1) slice, unrelated to the slice
// the departed server spilled.
func (r *Ring) WithServer() *Ring {
	nr := &Ring{servers: r.servers + 1, ids: r.ids + 1, vnodes: r.vnodes, seed: r.seed}
	nr.points = make([]ringPoint, len(r.points), len(r.points)+r.vnodes)
	copy(nr.points, r.points)
	nr.addPoints(int32(r.ids))
	sort.Slice(nr.points, func(a, b int) bool { return nr.points[a].hash < nr.points[b].hash })
	return nr
}
