package server

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"sync"
	"time"

	"otacache/internal/faults"
)

// connPool is the client's default http.RoundTripper: HTTP/1.1 over a
// small pool of keep-alive connections to one daemon, run entirely on
// the caller's goroutine. The request is written and the response read
// in the calling goroutine, so a round trip wakes no other goroutine on
// the client side, where http.Transport hands each one to its
// per-connection read and write loops. The price is that an idle
// connection the server closed is only noticed when it is next used;
// GET and HEAD redial once in that case (below).
type connPool struct {
	host    string // the URL host the pool serves, as in the base URL
	addr    string // dial address: host with the port made explicit
	maxIdle int
	// timeout is each request's connection deadline (dial, write, and
	// the response up to the body's last byte).
	timeout time.Duration

	mu   sync.Mutex
	idle []*poolConn // LIFO: the most recently returned conn is warmest
}

type poolConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
}

func newConnPool(u *url.URL, maxIdle int, timeout time.Duration) *connPool {
	addr := u.Host
	if u.Port() == "" {
		addr = net.JoinHostPort(u.Hostname(), "80")
	}
	return &connPool{host: u.Host, addr: addr, maxIdle: maxIdle, timeout: timeout}
}

// RoundTrip implements http.RoundTripper. A connection returns to the
// pool only once its response body has been read to EOF and closed,
// and neither side asked to close it; any error discards it.
func (p *connPool) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" || req.URL.Host != p.host {
		return nil, closeBody(req, fmt.Errorf("transport serves http://%s only", p.host))
	}
	// net/http's rule for replaying a request on a fresh connection:
	// GET and HEAD with no body, which the server cannot have acted on
	// if the reused connection failed before any response byte.
	replayable := (req.Method == http.MethodGet || req.Method == http.MethodHead) &&
		(req.Body == nil || req.Body == http.NoBody)
	pc, reused, err := p.get()
	for err == nil {
		var resp *http.Response
		var received bool
		if resp, received, err = p.exchange(pc, req); err == nil {
			return resp, nil
		}
		err = errors.Join(err, pc.conn.Close())
		// A reused connection that failed before any response byte, and
		// not by its deadline, was closed by the server while idle.
		if !reused || received || !replayable || errors.Is(err, os.ErrDeadlineExceeded) {
			break
		}
		pc, err = p.dial()
		reused = false
	}
	return nil, closeBody(req, err)
}

// exchange writes req on pc and reads the response head. received
// reports whether any response byte arrived before an error.
func (p *connPool) exchange(pc *poolConn, req *http.Request) (resp *http.Response, received bool, err error) {
	// A socket deadline is wall time whatever clock the client paces
	// its backoff with.
	if err := pc.conn.SetDeadline(faults.WallClock{}.Now().Add(p.timeout)); err != nil {
		return nil, false, err
	}
	if err := req.Write(pc.bw); err != nil {
		return nil, false, err
	}
	if err := pc.bw.Flush(); err != nil {
		return nil, false, err
	}
	if _, err := pc.br.Peek(1); err != nil {
		return nil, false, err
	}
	resp, err = http.ReadResponse(pc.br, req)
	if err != nil {
		return nil, true, err
	}
	resp.Body = &pooledBody{
		rc:   resp.Body,
		p:    p,
		pc:   pc,
		keep: !resp.Close && !req.Close,
		eof:  resp.Body == http.NoBody,
	}
	return resp, true, nil
}

// get takes the most recently pooled connection, or dials a new one.
func (p *connPool) get() (pc *poolConn, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		pc = p.idle[n-1]
		p.idle[n-1] = nil
		p.idle = p.idle[:n-1]
	}
	p.mu.Unlock()
	if pc != nil {
		return pc, true, nil
	}
	pc, err = p.dial()
	return pc, false, err
}

func (p *connPool) dial() (*poolConn, error) {
	c, err := net.DialTimeout("tcp", p.addr, p.timeout)
	if err != nil {
		return nil, err
	}
	return &poolConn{conn: c, br: bufio.NewReader(c), bw: bufio.NewWriter(c)}, nil
}

// put returns a connection whose response was fully read, closing it
// instead when the pool is full or the server sent bytes past the
// response (they would be read as the next response).
func (p *connPool) put(pc *poolConn) error {
	if pc.br.Buffered() == 0 {
		p.mu.Lock()
		if len(p.idle) < p.maxIdle {
			p.idle = append(p.idle, pc)
			p.mu.Unlock()
			return nil
		}
		p.mu.Unlock()
	}
	return pc.conn.Close()
}

// closeBody releases the body of a request that failed, as a
// RoundTripper must on every path, joining any close failure to err.
// A body the failed write already closed is closed again; at worst
// that adds a second line to err.
func closeBody(req *http.Request, err error) error {
	if req.Body != nil {
		return errors.Join(err, req.Body.Close())
	}
	return err
}

// pooledBody hands its connection back to the pool when a body read to
// EOF is closed; a body closed early, or one that failed, closes the
// connection, since unread bytes would be taken for the next response.
type pooledBody struct {
	rc     io.ReadCloser
	p      *connPool
	pc     *poolConn
	keep   bool // neither the request nor the response asked to close
	eof    bool
	closed bool
}

func (b *pooledBody) Read(buf []byte) (int, error) {
	if b.closed {
		// The connection may already carry another request.
		return 0, http.ErrBodyReadAfterClose
	}
	n, err := b.rc.Read(buf)
	if err == io.EOF {
		b.eof = true
	} else if err != nil {
		b.keep = false
	}
	return n, err
}

func (b *pooledBody) Close() error {
	if b.closed {
		return nil
	}
	b.closed = true
	if b.eof && b.keep {
		return b.p.put(b.pc)
	}
	return b.pc.conn.Close()
}
