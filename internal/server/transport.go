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
	host string // the URL host the pool serves, as in the base URL
	addr string // dial address: host with the port made explicit
	// target is an object request's request-URI up to the key, when the
	// codec writes this pool's object requests ("" when it does not).
	target  string
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

// exchange is one round trip on the pool: an *http.Request, or (req
// nil) an object request the codec writes and reads itself.
type exchange struct {
	req  *http.Request
	resp *http.Response

	method string
	key    uint64
	size   int64
	feat   []float64
	// res and err are the object request's decoded outcome: err is a
	// status the server answered with, not a transport failure.
	res LookupResult
	err error
}

// RoundTrip implements http.RoundTripper. A connection returns to the
// pool only once its response body has been read to EOF and closed,
// and neither side asked to close it; any error discards it.
func (p *connPool) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.URL.Scheme != "http" || req.URL.Host != p.host {
		return nil, closeBody(req, fmt.Errorf("transport serves http://%s only", p.host))
	}
	x := exchange{req: req}
	if err := p.run(&x); err != nil {
		return nil, closeBody(req, err)
	}
	return x.resp, nil
}

// run performs one exchange on a pooled or fresh connection.
func (p *connPool) run(x *exchange) error {
	// net/http's rule for replaying a request on a fresh connection:
	// GET and HEAD with no body, which the server cannot have acted on
	// if the reused connection failed before any response byte.
	replayable := x.method == http.MethodGet
	if req := x.req; req != nil {
		replayable = (req.Method == http.MethodGet || req.Method == http.MethodHead) &&
			(req.Body == nil || req.Body == http.NoBody)
	}
	pc, reused, err := p.get()
	for err == nil {
		var received bool
		if received, err = p.exchange(pc, x); err == nil {
			return nil
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
	return err
}

// exchange writes x's request on pc and reads the response: for an
// *http.Request its head (the body is the caller's to read), for an
// object request all of it. received reports whether any response byte
// arrived before an error.
func (p *connPool) exchange(pc *poolConn, x *exchange) (received bool, err error) {
	// A socket deadline is wall time whatever clock the client paces
	// its backoff with.
	if err := pc.conn.SetDeadline(faults.WallClock{}.Now().Add(p.timeout)); err != nil {
		return false, err
	}
	if x.req != nil {
		err = x.req.Write(pc.bw)
	} else {
		buf := appendObjectRequest(pc.bw.AvailableBuffer(), x.method, p.target, p.host, x.key, x.size, x.feat)
		_, err = pc.bw.Write(buf)
	}
	if err != nil {
		return false, err
	}
	if err := pc.bw.Flush(); err != nil {
		return false, err
	}
	if _, err := pc.br.Peek(1); err != nil {
		return false, err
	}
	if x.req == nil {
		for {
			b := buffered(pc.br)
			r, n, st := parseObjectResponse(b)
			if st == headDone {
				x.res, x.err = r.decode()
				p.finishObject(pc, n, r.length, r.close)
				return true, nil
			}
			if st == headReject || len(b) == pc.br.Size() {
				break // http.ReadResponse reads it
			}
			if _, err := pc.br.Peek(len(b) + 1); err != nil {
				return true, err
			}
		}
	}
	req := x.req
	if req == nil {
		req = &http.Request{Method: x.method}
	}
	resp, err := http.ReadResponse(pc.br, req)
	if err != nil {
		return true, err
	}
	resp.Body = &pooledBody{
		rc:   resp.Body,
		p:    p,
		pc:   pc,
		keep: !resp.Close && !req.Close,
		eof:  resp.Body == http.NoBody,
	}
	if x.req == nil {
		x.res, x.err = decodeObject(resp)
	} else {
		x.resp = resp
	}
	return true, nil
}

// finishObject consumes an object response's head and body and pools
// the connection, as decodeObject's drain does: a body past 4 KiB, or
// one that fails, closes it instead.
func (p *connPool) finishObject(pc *poolConn, head, body int, close bool) {
	//lint:allow errsink head bytes are buffered: Discard cannot fail
	pc.br.Discard(head)
	if body <= 4096 && !close {
		if _, err := pc.br.Discard(body); err == nil {
			//lint:allow errsink best-effort reuse, as pooledBody.Close: a failed close only forfeits the connection
			p.put(pc)
			return
		}
	}
	//lint:allow errsink read-side close after the response; nothing left to account
	pc.conn.Close()
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
