package server

import (
	"io"
	"sync"
	"testing"
	"time"

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

// TestFlashShardConcurrentReaders serves the daemon's flash assembly
// (original mode, two policy stripes, 4 KiB segments, the scrubber on)
// to four object clients while /metrics, /readyz and WriteSnapshot read
// the same shard. A flash shard's requests take only the shard lock, so
// every reader of its policy or store must take it too; under -race a
// reader that reaches for the policy or the store directly reports a
// data race here.
func TestFlashShardConcurrentReaders(t *testing.T) {
	cfg := stack.Defaults()
	cfg.Mode, cfg.Shards, cfg.Bytes = "original", 2, 64<<10
	cfg.FlashSegmentSize, cfg.FlashScrubInterval = 4<<10, time.Millisecond
	st, err := stack.Build(cfg, tinyTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(st.Scrubber.Stop)
	_, c := startTestServer(t, New(st.Server, Config{}))

	const clients, perClient = 4, 200
	var wg sync.WaitGroup
	for w := range clients {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range perClient {
				// 97 keys of 1-4 KiB over a 64 KiB cache: admissions evict
				// and the store collects.
				key := uint64((w*perClient + i*7) % 97)
				if _, err := c.Lookup(key, int64(1+key%4)<<10, nil); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for _, read := range []func() error{
		func() error { _, err := c.Metrics(); return err },
		c.Ready,
		func() error { _, err := WriteSnapshot(io.Discard, st.Server); return err },
	} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if err := read(); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	m := st.Server.Snapshot()
	if m.Requests != clients*perClient || m.FlashErases == 0 {
		t.Fatalf("served %d requests with %d erases, want %d requests and a collection", m.Requests, m.FlashErases, clients*perClient)
	}
}
