package main

import (
	"runtime"
	"slices"
	"sync"
	"time"

	"otacache/internal/engine"
	"otacache/internal/server"
)

// result is what a client learns from one lookup, in process or from the
// response headers.
type result struct {
	hit, written, predictedOneTime bool
}

// lookupFn serves request number pos of the stream on behalf of client w.
type lookupFn func(w int, pos int64) (result, error)

// inProcessLookup is the library call sequence of the daemon's handler:
// a tick from the engine's own counter, then Lookup.
func inProcessLookup(srv engine.Server, st *stream) lookupFn {
	return func(_ int, pos int64) (result, error) {
		key, size, feat, _ := st.at(pos)
		out := srv.Lookup(key, size, srv.NextTick(), feat)
		return result{out.Hit, out.Written, out.Decision.PredictedOneTime}, nil
	}
}

// httpLookup sends each client's requests over its own keep-alive
// connection. Retries are off: a retried GET is a second access, and the
// engine's request count would no longer equal the requests issued.
func httpLookup(clients []*server.Client, st *stream) lookupFn {
	return func(w int, pos int64) (result, error) {
		key, size, feat, _ := st.at(pos)
		res, err := clients[w].Lookup(key, size, feat)
		return result{res.Hit, res.Written, res.PredictedOneTime}, err
	}
}

func newHTTPClients(baseURL string, n int) []*server.Client {
	clients := make([]*server.Client, n)
	for i := range clients {
		clients[i] = server.NewClient(baseURL, 1)
		clients[i].SetRetry(server.RetryConfig{MaxAttempts: 1})
	}
	return clients
}

// slice is the outcome of one timed slice.
type slice struct {
	reqs   int64
	wallNs int64
	hits   int64
	failed int64
	// latNs holds the sampled per-lookup latencies, sorted.
	latNs []int64
}

// runSlice serves requests [start, start+n) with g closed-loop clients:
// client w takes start+w, start+w+g, … and sends its next request only
// when the previous one has been answered — the cache's callers are
// download servers that wait for each reply. One lookup in latEvery is
// timed. observe, when set, sees every result (single-client runs only).
func runSlice(fn lookupFn, start, n int64, g, latEvery int, observe func(pos int64, r result)) slice {
	type clientOut struct {
		hits, failed int64
		lat          []int64
	}
	outs := make([]clientOut, g)
	var wg sync.WaitGroup
	t0 := time.Now()
	for w := 0; w < g; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			o := &outs[w]
			o.lat = make([]int64, 0, n/int64(g*latEvery)+1)
			count := 0
			for pos := start + int64(w); pos < start+n; pos += int64(g) {
				var r result
				var err error
				if count%latEvery == 0 {
					t := time.Now()
					r, err = fn(w, pos)
					o.lat = append(o.lat, int64(time.Since(t)))
				} else {
					r, err = fn(w, pos)
				}
				count++
				if err != nil {
					o.failed++
					continue
				}
				if r.hit {
					o.hits++
				}
				if observe != nil {
					observe(pos, r)
				}
			}
		}(w)
	}
	wg.Wait()
	s := slice{reqs: n, wallNs: int64(time.Since(t0))}
	for i := range outs {
		s.hits += outs[i].hits
		s.failed += outs[i].failed
		s.latNs = append(s.latNs, outs[i].lat...)
	}
	slices.Sort(s.latNs)
	return s
}

// window is a run of consecutive slices.
type window struct {
	slices []slice
	// reqs, failed, hits and wallNs are summed over the slices.
	reqs, failed, hits, wallNs int64
	// atQuality is the engine's counters and the live heap after the
	// first qualitySlices slices; before is the counters at the start.
	before, atQuality engine.Metrics
	heapAtQuality     uint64
	after             engine.Metrics
}

// runWindow serves slices from stream position start until at least
// seconds have passed and at least minSlices slices are done. After
// qualitySlices slices (0 = never) it records the counters and the live
// heap, between slices so no timed request pays for the collection.
func runWindow(fn lookupFn, eng engine.Server, sp spec, start int64, g int, seconds float64, minSlices, qualitySlices int, observe func(int64, result)) window {
	w := window{before: eng.Snapshot()}
	t0 := time.Now()
	pos := start
	for i := 0; i < minSlices || time.Since(t0).Seconds() < seconds; i++ {
		s := runSlice(fn, pos, sp.sliceReqs, g, sp.latEvery, observe)
		w.slices = append(w.slices, s)
		w.reqs += s.reqs
		w.failed += s.failed
		w.hits += s.hits
		w.wallNs += s.wallNs
		pos += sp.sliceReqs
		if i+1 == qualitySlices {
			w.atQuality = eng.Snapshot()
			w.heapAtQuality = liveHeap()
		}
	}
	w.after = eng.Snapshot()
	return w
}

// liveHeap returns the bytes of reachable heap objects.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// calibLoop times a fixed CPU-bound reference loop. It is run before and
// after each workload: when it moves, the host changed pace, not the
// code.
func calibLoop() float64 {
	x := uint64(88172645463325252)
	t0 := time.Now()
	for i := 0; i < 20_000_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	d := time.Since(t0)
	calibSink = x
	return float64(d)
}

// calibSink keeps the compiler from deleting calibLoop's work.
var calibSink uint64
