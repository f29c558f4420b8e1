package server

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/labeling"
	"otacache/internal/ml/cart"
	"otacache/internal/mlcore"
)

// trainThresholdTree builds a classifier admission around a tiny tree
// predicting one-time exactly when feature 0 is above the threshold
// (invert flips the classes).
func trainThresholdTree(t testing.TB, threshold float64, invert bool) *core.ClassifierAdmission {
	t.Helper()
	tree := trainTree(t, threshold, invert)
	adm, err := core.NewClassifierAdmission(tree, core.NewHistoryTable(256), labeling.Criteria{M: 1000})
	if err != nil {
		t.Fatal(err)
	}
	return adm
}

func trainTree(t testing.TB, threshold float64, invert bool) *cart.Tree {
	t.Helper()
	d := &mlcore.Dataset{}
	for i := 0; i < 200; i++ {
		x := float64(i) / 200
		label := mlcore.Negative
		if (x > threshold) != invert {
			label = mlcore.Positive
		}
		d.X = append(d.X, []float64{x, 0, 0, 0, 0})
		d.Y = append(d.Y, label)
	}
	tree, err := core.TrainTree(d, 1)
	if err != nil {
		t.Fatal(err)
	}
	return tree
}

func newTestEngine(t testing.TB, filter core.Filter) *engine.Engine {
	t.Helper()
	policy, err := cache.NewSharded(1<<20, 4, func(c int64) cache.Policy { return cache.NewLRU(c) })
	if err != nil {
		t.Fatal(err)
	}
	eng, err := engine.New(policy, filter)
	if err != nil {
		t.Fatal(err)
	}
	return eng
}

// testServer is a Server running Serve on a loopback listener until
// the test ends, then drained with Shutdown: the harness the server
// tests run on, so they reach the connection loop the daemon ships.
type testServer struct {
	URL string
	ln  *countingListener
}

func serveTest(t testing.TB, s *Server) *testServer {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cl := &countingListener{Listener: ln}
	done := make(chan error, 1)
	go func() { done <- s.Serve(cl) }()
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if s.Shutdown(ctx) != nil {
			cl.CloseConns()
		}
		if err := <-done; err != nil {
			t.Errorf("serve: %v", err)
		}
	})
	return &testServer{URL: "http://" + ln.Addr().String(), ln: cl}
}

// CloseClientConnections closes every connection the server accepted,
// as httptest.Server's method of the name does.
func (ts *testServer) CloseClientConnections() { ts.ln.CloseConns() }

func startTestServer(t testing.TB, s *Server) (*testServer, *Client) {
	t.Helper()
	ts := serveTest(t, s)
	return ts, NewClient(ts.URL, 4)
}

func TestObjectLookupAndOffer(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{})
	_, c := startTestServer(t, s)

	// First access misses and is admitted; the second hits.
	res, err := c.Lookup(7, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Hit || !res.Admitted || !res.Written {
		t.Fatalf("first lookup = %+v, want miss+admitted+written", res)
	}
	res, err = c.Lookup(7, 1000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("second lookup = %+v, want hit", res)
	}

	// Offer inserts without a Get: the next lookup hits.
	if _, err := c.Offer(9, 500, nil); err != nil {
		t.Fatal(err)
	}
	res, err = c.Lookup(9, 500, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Hit {
		t.Fatalf("lookup after offer = %+v, want hit", res)
	}

	m := s.Engine().Snapshot()
	if m.Requests != 3 || m.Hits != 2 || m.Writes != 2 {
		t.Fatalf("counters = %+v", m)
	}
}

func TestObjectValidation(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{NumFeatures: 5})
	ts, _ := startTestServer(t, s)

	get := func(path string, hdr map[string]string) int {
		req, err := http.NewRequest(http.MethodGet, ts.URL+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		for k, v := range hdr {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := get("/object/notakey", map[string]string{"X-Ota-Size": "10"}); code != http.StatusBadRequest {
		t.Fatalf("bad key -> %d", code)
	}
	if code := get("/object/5", nil); code != http.StatusBadRequest {
		t.Fatalf("missing size -> %d", code)
	}
	if code := get("/object/5", map[string]string{"X-Ota-Size": "-3"}); code != http.StatusBadRequest {
		t.Fatalf("negative size -> %d", code)
	}
	if code := get("/object/5", map[string]string{"X-Ota-Size": "10", "X-Ota-Feat": "1,2"}); code != http.StatusBadRequest {
		t.Fatalf("wrong feature arity -> %d", code)
	}
	if code := get("/object/5", map[string]string{"X-Ota-Size": "10", "X-Ota-Feat": "1,x,3,4,5"}); code != http.StatusBadRequest {
		t.Fatalf("malformed feature -> %d", code)
	}
	// A well-formed miss is 404, not an error.
	if code := get("/object/5", map[string]string{"X-Ota-Size": "10", "X-Ota-Feat": "1,2,3,4,5"}); code != http.StatusNotFound {
		t.Fatalf("valid miss -> %d", code)
	}
	// Requests never reached the engine except the valid one.
	if m := s.Engine().Snapshot(); m.Requests != 1 {
		t.Fatalf("engine saw %d requests, want 1", m.Requests)
	}
}

// TestObjectRouteStatusCodes pins what every near miss of the object
// route answers: the status, the redirect target, the Allow list and
// the body, as the mux-only dispatch answered them. Only GET and PUT
// /object/<decimal> take the fast path; the rest must fall through to
// the mux unchanged. Each request goes to a fresh server, so a valid
// lookup is always a miss.
func TestObjectRouteStatusCodes(t *testing.T) {
	for _, tc := range []struct {
		method, path string
		status       int
		location     string
		allow        string
		body         string
	}{
		{"GET", "/object/1", 404, "", "", "MISS"},
		{"PUT", "/object/1", 200, "", "", "OFFERED"},
		{"GET", "/object/", 404, "", "", "404 page not found"},
		{"GET", "/object/1/2", 404, "", "", "404 page not found"},
		{"GET", "/object//1", 301, "/object/1", "", `<a href="/object/1">Moved Permanently</a>.`},
		{"GET", "/object/abc", 400, "", "", `bad key: strconv.ParseUint: parsing "abc": invalid syntax`},
		{"GET", "/object/%31", 404, "", "", "MISS"},
		{"GET", "/object/1?x=1", 404, "", "", "MISS"},
		{"DELETE", "/object/1", 405, "", "GET, HEAD, PUT", "Method Not Allowed"},
		{"POST", "/object/1", 405, "", "GET, HEAD, PUT", "Method Not Allowed"},
		{"HEAD", "/object/1", 404, "", "", ""},
		{"GET", "/objects/1", 404, "", "", "404 page not found"},
		{"PUT", "/object/", 404, "", "", "404 page not found"},
		{"PUT", "/object//1", 301, "/object/1", "", ""},
		{"PUT", "/object/1/2", 404, "", "", "404 page not found"},
		{"PUT", "/object/abc", 400, "", "", `bad key: strconv.ParseUint: parsing "abc": invalid syntax`},
		{"GET", "/object/.", 301, "/object", "", `<a href="/object">Moved Permanently</a>.`},
		{"GET", "/object/..", 301, "/", "", `<a href="/">Moved Permanently</a>.`},
		{"GET", "/object/%2E", 400, "", "", `bad key: strconv.ParseUint: parsing ".": invalid syntax`},
		{"GET", "/object/1%2F2", 400, "", "", `bad key: strconv.ParseUint: parsing "1/2": invalid syntax`},
		{"GET", "/object/18446744073709551616", 400, "", "",
			`bad key: strconv.ParseUint: parsing "18446744073709551616": value out of range`},
	} {
		ts, _ := startTestServer(t, New(newTestEngine(t, nil), Config{}))
		req, err := http.NewRequest(tc.method, ts.URL+tc.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("X-Ota-Size", "10")
		hc := &http.Client{CheckRedirect: func(*http.Request, []*http.Request) error {
			return http.ErrUseLastResponse
		}}
		resp, err := hc.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		got := fmt.Sprintf("%d loc=%q allow=%q body=%q", resp.StatusCode,
			resp.Header.Get("Location"), resp.Header.Get("Allow"), strings.TrimSpace(string(body)))
		want := fmt.Sprintf("%d loc=%q allow=%q body=%q", tc.status, tc.location, tc.allow, tc.body)
		if got != want {
			t.Errorf("%s %s: got %s, want %s", tc.method, tc.path, got, want)
		}
	}
}

// TestNonFiniteFeaturesRejected: NaN and ±Inf parse as floats, but a
// non-finite feature would reach the tree walk and the retrainer's
// sample buffer, so the object path answers 400 before the engine sees
// the request.
func TestNonFiniteFeaturesRejected(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{NumFeatures: 5})
	ts, _ := startTestServer(t, s)
	before := s.Engine().Snapshot()
	for _, method := range []string{http.MethodGet, http.MethodPut} {
		for _, feat := range []string{"1,NaN,3,4,5", "1,2,+Inf,4,5", "-inf,2,3,4,5"} {
			req, err := http.NewRequest(method, ts.URL+"/object/5", nil)
			if err != nil {
				t.Fatal(err)
			}
			req.Header.Set("X-Ota-Size", "10")
			req.Header.Set("X-Ota-Feat", feat)
			resp, err := http.DefaultClient.Do(req)
			if err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("%s with X-Ota-Feat %q -> %d, want 400", method, feat, resp.StatusCode)
			}
		}
	}
	if after := s.Engine().Snapshot(); after != before {
		t.Fatalf("engine counters moved: %+v -> %+v", before, after)
	}
}

func TestFeatRequiredWithClassifier(t *testing.T) {
	adm := trainThresholdTree(t, 0.5, false)
	s := New(newTestEngine(t, adm), Config{NumFeatures: 5})
	ts, _ := startTestServer(t, s)

	req, _ := http.NewRequest(http.MethodGet, ts.URL+"/object/1", nil)
	req.Header.Set("X-Ota-Size", "10")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("classifier engine without features -> %d, want 400", resp.StatusCode)
	}
}

// TestClassifierHotSwap pins the acceptance criterion: uploading a new
// model over the admin endpoint changes subsequent admission decisions
// without a restart.
func TestClassifierHotSwap(t *testing.T) {
	// Initial model: feature0 > 0.5 predicts one-time (bypass).
	adm := trainThresholdTree(t, 0.5, false)
	s := New(newTestEngine(t, adm), Config{NumFeatures: 5})
	_, c := startTestServer(t, s)

	oneTimey := []float64{0.9, 0, 0, 0, 0}
	res, err := c.Lookup(100, 1000, oneTimey)
	if err != nil {
		t.Fatal(err)
	}
	if res.Admitted || !res.PredictedOneTime {
		t.Fatalf("initial model must bypass feat0=0.9, got %+v", res)
	}

	// Swap in the inverted model: feature0 > 0.5 now admits.
	inv := trainTree(t, 0.5, true)
	if err := c.SwapClassifier(inv); err != nil {
		t.Fatal(err)
	}
	res, err = c.Lookup(101, 1000, oneTimey)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Admitted {
		t.Fatalf("after hot-swap feat0=0.9 must be admitted, got %+v", res)
	}
}

func TestSwapClassifierRejections(t *testing.T) {
	// Admit-all engine: no admission system to swap into.
	s := New(newTestEngine(t, nil), Config{NumFeatures: 5})
	_, c := startTestServer(t, s)
	tree := trainTree(t, 0.5, false)
	if err := c.SwapClassifier(tree); err == nil {
		t.Fatal("swap against admit-all engine must fail")
	}
}

// TestGracefulDrain starts a real listener, holds a request in flight,
// and checks Shutdown waits for it while Serve returns nil.
func TestGracefulDrain(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{RequestTimeout: 5 * time.Second})
	inHandler := make(chan struct{})
	releaseHandler := make(chan struct{})
	var hookOnce sync.Once
	s.testHookRequest = func() {
		hookOnce.Do(func() {
			close(inHandler)
			<-releaseHandler
		})
	}

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()

	c := NewClient("http://"+ln.Addr().String(), 2)
	lookupDone := make(chan error, 1)
	go func() {
		_, err := c.Lookup(1, 100, nil)
		lookupDone <- err
	}()
	<-inHandler

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Shutdown must not complete while the request is in flight.
	select {
	case err := <-shutdownDone:
		t.Fatalf("shutdown finished with request in flight: %v", err)
	case <-time.After(100 * time.Millisecond):
	}

	close(releaseHandler)
	if err := <-lookupDone; err != nil {
		t.Fatalf("in-flight request failed during drain: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v after clean shutdown, want nil", err)
	}
}

// TestConnectionLimit checks the cap serializes excess connections
// without dropping or deadlocking them.
func TestConnectionLimit(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{MaxConns: 2})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		s.Shutdown(ctx)
	}()

	var wg sync.WaitGroup
	errc := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One fresh connection per request: a kept-alive connection
			// would hold its semaphore slot while idle, which is the
			// cap's intended behaviour but not what this test probes.
			hc := &http.Client{
				Transport: &http.Transport{DisableKeepAlives: true},
				Timeout:   10 * time.Second,
			}
			for i := 0; i < 5; i++ {
				req, err := http.NewRequest(http.MethodGet,
					"http://"+ln.Addr().String()+"/object/"+strconv.Itoa(i), nil)
				if err != nil {
					errc <- err
					return
				}
				req.Header.Set("X-Ota-Size", "100")
				resp, err := hc.Do(req)
				if err != nil {
					errc <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Fatalf("request through connection cap failed: %v", err)
	}
	if m := s.Engine().Snapshot(); m.Requests != 40 {
		t.Fatalf("served %d requests, want 40", m.Requests)
	}
}
