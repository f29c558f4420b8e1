package cluster_test

import (
	"fmt"

	"otacache/internal/cluster"
)

// Example shows the property the engine shards rely on: a ring built
// from the same fleet size and seed routes every key identically, and
// spreads the keys over every server.
func Example() {
	ring, _ := cluster.NewRing(10, 128, 1)
	again, _ := cluster.NewRing(10, 128, 1)

	moved := 0
	owners := make(map[int]bool)
	for key := uint64(0); key < 10000; key++ {
		owners[ring.Server(key)] = true
		if again.Server(key) != ring.Server(key) {
			moved++
		}
	}
	fmt.Printf("keys routed differently: %d\n", moved)
	fmt.Printf("servers owning keys: %d\n", len(owners))
	// Output:
	// keys routed differently: 0
	// servers owning keys: 10
}
