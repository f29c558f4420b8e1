package server

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestShutdownContract: Shutdown returns ctx.Err() while a request is
// still in flight, closes idle connections, unblocks an accept loop
// waiting on the connection cap, and the held request still gets its
// answer once released.
func TestShutdownContract(t *testing.T) {
	s := New(newTestEngine(t, nil), Config{MaxConns: 2})
	release := make(chan struct{})
	held := make(chan struct{})
	var hold atomic.Bool
	var once sync.Once
	s.testHookRequest = func() {
		if hold.Load() {
			once.Do(func() { close(held) })
			<-release
		}
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	serveDone := make(chan error, 1)
	go func() { serveDone <- s.Serve(ln) }()
	base := "http://" + ln.Addr().String()

	// One idle keep-alive connection, and one holding a request: both
	// cap slots are taken, so the accept loop waits on the semaphore.
	idle := NewClient(base, 1)
	if _, err := idle.Lookup(1, 100, nil); err != nil {
		t.Fatal(err)
	}
	hold.Store(true)
	busy := NewClient(base, 1)
	lookupDone := make(chan error, 1)
	go func() {
		_, err := busy.Lookup(2, 100, nil)
		lookupDone <- err
	}()
	<-held

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown with a request in flight = %v, want the context's deadline", err)
	}
	select {
	case err := <-serveDone:
		if err != nil {
			t.Fatalf("Serve = %v after Shutdown, want nil", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Serve still waits on the connection cap after Shutdown")
	}
	// The idle connection was closed under its pool.
	pc := idle.rt.(*connPool).idle[0]
	if err := pc.conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := pc.br.Peek(1); !errors.Is(err, io.EOF) {
		t.Fatalf("idle connection after Shutdown: read %v, want EOF", err)
	}
	close(release)
	if err := <-lookupDone; err != nil {
		t.Fatalf("held request failed: %v", err)
	}
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown, nothing in flight: %v", err)
	}
}

// TestRequestTimeoutBoundsHead: RequestTimeout bounds a head that
// stops arriving, and never an idle connection between requests.
func TestRequestTimeoutBoundsHead(t *testing.T) {
	const timeout = 100 * time.Millisecond
	ts := serveTest(t, New(newTestEngine(t, nil), Config{RequestTimeout: timeout}))
	dial := func() (net.Conn, *bufio.Reader) {
		c, err := net.Dial("tcp", ts.URL[len("http://"):])
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		if err := c.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		return c, bufio.NewReader(c)
	}
	const req = "GET /object/1 HTTP/1.1\r\nHost: h\r\nX-Ota-Size: 10\r\n\r\n"

	// A connection idle past the timeout between requests still serves.
	c, br := dial()
	for i := 0; i < 2; i++ {
		if _, err := io.WriteString(c, req); err != nil {
			t.Fatal(err)
		}
		resp, err := http.ReadResponse(br, nil)
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
		resp.Body.Close()
		time.Sleep(3 * timeout)
	}

	// A head that stops after a whole line is dropped after the
	// timeout, unanswered. (Stopped mid-line, net/http parses the part
	// line it has and answers 400, and so does Serve.)
	c, br = dial()
	start := time.Now()
	if _, err := io.WriteString(c, req[:len("GET /object/1 HTTP/1.1\r\nHost: h\r\n")]); err != nil {
		t.Fatal(err)
	}
	if _, err := br.Peek(1); !errors.Is(err, io.EOF) {
		t.Fatalf("partial head: read %v, want EOF", err)
	}
	if waited := time.Since(start); waited < timeout || waited > 3*time.Second {
		t.Fatalf("partial head dropped after %v, want about %v", waited, timeout)
	}
}
