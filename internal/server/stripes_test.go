package server

import (
	"sync"
	"testing"

	"otacache/internal/stack"
)

// TestOneStripeConcurrentClients serves one engine over one policy
// stripe, the daemon's -shards 1, to four concurrent clients. Without a
// flash store the engine takes no lock of its own, so the policy must
// bring one; under -race a bare policy here reports a data race in the
// policy's arena.
func TestOneStripeConcurrentClients(t *testing.T) {
	eng := buildE2E(t, tinyTrace(t), func(c *stack.Config) {
		c.Mode, c.Shards, c.Bytes = "original", 1, 64<<10
	})
	_, c := startTestServer(t, New(eng, Config{}))

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				// 64 keys of 4 KiB over a 64 KiB cache: every client's
				// admissions evict the others' residents.
				if _, err := c.Lookup(uint64((w*perClient+i*7)%64), 4<<10, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if m := eng.Snapshot(); m.Requests != clients*perClient {
		t.Fatalf("served %d requests, want %d", m.Requests, clients*perClient)
	}
}
