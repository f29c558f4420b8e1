package server

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// countingListener counts the connections a server accepts and keeps
// them, so a test can close them under the server.
type countingListener struct {
	net.Listener
	accepts atomic.Int64
	mu      sync.Mutex
	conns   []net.Conn
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err == nil {
		l.accepts.Add(1)
		l.mu.Lock()
		l.conns = append(l.conns, c)
		l.mu.Unlock()
	}
	return c, err
}

// CloseConns closes every accepted connection.
func (l *countingListener) CloseConns() {
	l.mu.Lock()
	conns := l.conns
	l.conns = nil
	l.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// serveCounting serves s on a counting loopback listener until the test
// ends.
func serveCounting(t *testing.T, s *Server) (*countingListener, string) {
	t.Helper()
	ts := serveTest(t, s)
	return ts.ln, ts.URL
}

func idleConns(c *Client) int {
	p := c.rt.(*connPool)
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.idle)
}

// TestPoolReusesOneConn: a sequential client keeps one connection
// alive for its whole run.
func TestPoolReusesOneConn(t *testing.T) {
	ln, base := serveCounting(t, New(newTestEngine(t, nil), Config{}))
	c := NewClient(base, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 1})
	for i := 0; i < 1000; i++ {
		if _, err := c.Lookup(uint64(i%50), 100, nil); err != nil {
			t.Fatalf("lookup %d: %v", i, err)
		}
	}
	if n := ln.accepts.Load(); n != 1 {
		t.Fatalf("1000 sequential lookups took %d connections, want 1", n)
	}
	if n := idleConns(c); n != 1 {
		t.Fatalf("%d idle connections after the run, want 1", n)
	}
}

// TestPoolRedialsConnClosedWhileIdle: a keep-alive connection the
// server closed while it sat in the pool costs neither a failed lookup
// nor a retry — the transport redials once on its own.
func TestPoolRedialsConnClosedWhileIdle(t *testing.T) {
	ts, c := startTestServer(t, New(newTestEngine(t, nil), Config{}))
	c.SetRetry(RetryConfig{MaxAttempts: 1})
	for round := 0; round < 3; round++ {
		if _, err := c.Lookup(1, 100, nil); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if n := idleConns(c); n != 1 {
			t.Fatalf("round %d: %d idle connections, want 1", round, n)
		}
		ts.CloseClientConnections()
	}
	if c.RetriesUsed() != 0 {
		t.Fatalf("stale connections cost %d retries, want 0", c.RetriesUsed())
	}
}

// TestPoolDropsConnectionClose: a response carrying Connection: close
// ends its connection instead of pooling it.
func TestPoolDropsConnectionClose(t *testing.T) {
	var accepts atomic.Int64
	ts := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Connection", "close")
		io.WriteString(w, "ok\n")
	}))
	ts.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			accepts.Add(1)
		}
	}
	ts.Start()
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, 1)
	for i := 0; i < 3; i++ {
		if err := c.Health(); err != nil {
			t.Fatal(err)
		}
		if n := idleConns(c); n != 0 {
			t.Fatalf("request %d: Connection: close left %d idle connections", i, n)
		}
	}
	if n := accepts.Load(); n != 3 {
		t.Fatalf("3 Connection: close requests took %d connections, want 3", n)
	}
}

// TestPoolDropsPartlyReadBody: closing a body before EOF closes its
// connection (the unread bytes would be taken for the next response)
// without reading the rest, and the next request dials afresh.
func TestPoolDropsPartlyReadBody(t *testing.T) {
	big := strings.Repeat("x", 1<<20)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/big" {
			io.WriteString(w, big)
			return
		}
		io.WriteString(w, "ok\n")
	}))
	t.Cleanup(ts.Close)
	c := NewClient(ts.URL, 1)
	resp, err := c.do(http.MethodGet, "/big", nil)
	if err != nil {
		t.Fatal(err)
	}
	// Read until the connection's buffer is empty but the body is not:
	// the rest is still in the socket, where no buffer check can see it.
	br := resp.Body.(*pooledBody).pc.br
	for n := 0; n == 0 || br.Buffered() > 0; n++ {
		if _, err := resp.Body.Read(make([]byte, 1)); err != nil {
			t.Fatal(err)
		}
	}
	if err := resp.Body.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := resp.Body.Read(make([]byte, 1)); !errors.Is(err, http.ErrBodyReadAfterClose) {
		t.Fatalf("read after close: %v", err)
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("a partly read body left %d idle connections", n)
	}
	if err := c.Health(); err != nil {
		t.Fatalf("request after a dropped connection: %v", err)
	}
	if n := idleConns(c); n != 1 {
		t.Fatalf("%d idle connections after a full read, want 1", n)
	}
}

// TestPoolDropsConnWithStrayBytes: bytes a server sends past the end of
// a response would be read as the next response, so the connection
// carrying them is closed, not pooled.
func TestPoolDropsConnWithStrayBytes(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan error, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			served <- err
			return
		}
		defer c.Close()
		if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
			served <- err
			return
		}
		_, err = io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\nstray")
		served <- err
	}()
	c := NewClient("http://"+ln.Addr().String(), 1)
	if err := c.Health(); err != nil {
		t.Fatal(err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("a connection with stray bytes was pooled (%d idle)", n)
	}
}

// TestPoolDeadlineOverrun: AttemptTimeout is the connection deadline —
// a request the server holds past it fails with a timeout, and the next
// request goes through on a fresh connection.
func TestPoolDeadlineOverrun(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{})
	release := make(chan struct{})
	var once sync.Once
	s.testHookRequest = func() { once.Do(func() { <-release }) }
	_, c := startTestServer(t, s)
	c.SetRetry(RetryConfig{MaxAttempts: 1, AttemptTimeout: 50 * time.Millisecond})

	// A deadline that does not fire fails the test instead of hanging it.
	unblock := sync.OnceFunc(func() { close(release) })
	time.AfterFunc(5*time.Second, unblock)
	_, err := c.Lookup(1, 100, nil)
	unblock()
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("held request: got %v, want a deadline error", err)
	}
	if n := idleConns(c); n != 0 {
		t.Fatalf("a timed-out connection was pooled (%d idle)", n)
	}
	if _, err := c.Lookup(2, 100, nil); err != nil {
		t.Fatalf("request after a deadline overrun: %v", err)
	}
}

// TestPoolConcurrentIdleCap: eight goroutines share a client sized for
// two workers; the pool never holds more than its 2×workers cap of idle
// connections. CI repeats it under -race.
func TestPoolConcurrentIdleCap(t *testing.T) {
	_, base := serveCounting(t, New(newTestEngine(t, nil), Config{}))
	const workers, goroutines, perG = 2, 8, 100
	c := NewClient(base, workers)
	c.SetRetry(RetryConfig{MaxAttempts: 1})
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				if _, err := c.Lookup(uint64(g*perG+i), 100, nil); err != nil {
					t.Errorf("lookup: %v", err)
					return
				}
				if n := idleConns(c); n > 2*workers {
					t.Errorf("%d idle connections, cap %d", n, 2*workers)
					return
				}
			}
		}()
	}
	wg.Wait()
	if n := idleConns(c); n < 1 || n > 2*workers {
		t.Fatalf("%d idle connections after the run, want 1..%d", n, 2*workers)
	}
}

// TestPoolRunsNoGoroutines: open connections cost the client no
// goroutines (http.Transport runs two per connection). A one-goroutine
// server makes the client hold k connections at once — it answers none
// of the k requests until all have arrived — and then exits, so once
// the requesting goroutines return the count must be back where it
// started while the k connections sit in the pool.
func TestPoolRunsNoGoroutines(t *testing.T) {
	const k = 6
	before := runtime.NumGoroutine()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var conns []net.Conn
	defer func() {
		for _, c := range conns {
			c.Close()
		}
	}()
	served := make(chan error, 1)
	go func() {
		for len(conns) < k {
			c, err := ln.Accept()
			if err != nil {
				served <- err
				return
			}
			conns = append(conns, c)
			if _, err := http.ReadRequest(bufio.NewReader(c)); err != nil {
				served <- err
				return
			}
		}
		for _, c := range conns {
			if _, err := io.WriteString(c, "HTTP/1.1 200 OK\r\nContent-Length: 3\r\n\r\nok\n"); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()

	c := NewClient("http://"+ln.Addr().String(), k)
	var wg sync.WaitGroup
	for i := 0; i < k; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := c.Health(); err != nil {
				t.Errorf("probe: %v", err)
			}
		}()
	}
	wg.Wait()
	if err := <-served; err != nil {
		t.Fatal(err)
	}
	if n := idleConns(c); n != k {
		t.Fatalf("%d idle connections, want %d", n, k)
	}
	// Exited goroutines leave the count shortly after wg.Done.
	n := runtime.NumGoroutine()
	for end := time.Now().Add(2 * time.Second); n > before && time.Now().Before(end); n = runtime.NumGoroutine() {
		runtime.Gosched()
	}
	if n > before {
		t.Fatalf("%d goroutines with %d pooled connections, %d before", n, k, before)
	}
}
