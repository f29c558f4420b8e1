package server

import (
	"net/http"
	"net/http/httptest"
	"strconv"
	"testing"
)

// benchFeat is a five-feature vector the threshold tree admits
// (feature 0 below 0.5), as floats and in its wire form.
var (
	benchFeat    = []float64{0.25, 3, 1024, 0.125, 7}
	benchFeatHdr = encodeFeat(benchFeat)
)

// newBenchServer is the handler rung's stack: a four-stripe LRU behind
// classifier admission, with the feature arity enforced, as the
// http-proposal daemon runs it.
func newBenchServer(b testing.TB) *Server {
	return New(newTestEngine(b, trainThresholdTree(b, 0.5, false)), Config{NumFeatures: 5})
}

// BenchmarkObjectHandler is the handler rung: the daemon's full handler
// (dispatch, parse, engine lookup, response headers) over an
// httptest.ResponseRecorder, with no socket. hit repeats one resident
// key; miss sends a fresh key each time, so every request runs the
// admission decision and an insertion.
func BenchmarkObjectHandler(b *testing.B) {
	for _, tc := range []struct {
		name   string
		status int
		key    func(i int) uint64
	}{
		{"hit", http.StatusOK, func(int) uint64 { return 1 }},
		{"miss", http.StatusNotFound, func(i int) uint64 { return uint64(i) + 2 }},
	} {
		b.Run(tc.name, func(b *testing.B) {
			h := newBenchServer(b).Handler()
			serve := func(key uint64) int {
				r := httptest.NewRequest(http.MethodGet, "/object/"+strconv.FormatUint(key, 10), nil)
				r.Header["X-Ota-Size"] = []string{"100"}
				r.Header["X-Ota-Feat"] = []string{benchFeatHdr}
				w := httptest.NewRecorder()
				h.ServeHTTP(w, r)
				return w.Code
			}
			serve(1) // make key 1 resident
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if code := serve(tc.key(i)); code != tc.status {
					b.Fatalf("status %d, want %d", code, tc.status)
				}
			}
		})
	}
}

// BenchmarkClientLoopback is the loopback rung: one closed-loop
// Client.Lookup at a time against server.New on 127.0.0.1, retries off
// as otabench runs them. It prices the client, the socket and the
// server's connection handling on top of the handler rung.
func BenchmarkClientLoopback(b *testing.B) {
	c := NewClient(serveTest(b, newBenchServer(b)).URL, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 1})
	if _, err := c.Lookup(1, 100, benchFeat); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.Lookup(uint64(i%1024)+1, 100, benchFeat); err != nil {
			b.Fatal(err)
		}
	}
}
