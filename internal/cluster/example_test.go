package cluster_test

import (
	"fmt"

	"otacache/internal/cluster"
)

// Example shows the consistent-hashing guarantee operators rely on:
// losing one server of a fleet remaps only that server's keys.
func Example() {
	ring, _ := cluster.NewRing(10, 128, 1)
	smaller, _ := ring.WithoutServer(3)

	moved, total := 0, 0
	for key := uint64(0); key < 10000; key++ {
		if ring.Server(key) == 3 {
			continue // the removed server's keys must move
		}
		total++
		if smaller.Server(key) != ring.Server(key) {
			moved++
		}
	}
	fmt.Printf("thousands of surviving keys checked: %v\n", total > 8000)
	fmt.Printf("surviving keys remapped: %d\n", moved)
	// Output:
	// thousands of surviving keys checked: true
	// surviving keys remapped: 0
}
