package server

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/engine"
	"otacache/internal/faults"
)

// The daemon's connection loop. Serve accepts connections itself and
// serves each on one goroutine of its own: a request the object codec
// accepts (wire.go) is answered inline through serveObject; anything
// else is read by http.ReadRequest and answered by Handler() through a
// buffered ResponseWriter, with net/http's rules for status lines,
// Content-Length, Content-Type sniffing and keep-alive. Sockets are
// wall-clock objects: their deadlines, the Date header and Shutdown's
// polling read the wall clock whatever clock Config.Clock injects for
// measurement.

// Connection states. A connection is connNew until its first request's
// first byte, connActive while a request is read and served, and
// connIdle between requests; Shutdown closes an idle connection by
// moving it to connClosed first, so a request is never cut in half.
const (
	connNew int32 = iota
	connActive
	connIdle
	connClosed
)

const (
	// maxHeaderBytes bounds a head net/http parses, as http.Server's
	// default MaxHeaderBytes does (plus its 4 KiB of slack).
	maxHeaderBytes = 1<<20 + 4096
	// maxPostHandlerReadBytes is how much unread request body net/http
	// discards after a handler to keep the connection; past it, the
	// connection closes.
	maxPostHandlerReadBytes = 256 << 10
	// newConnGrace is how long Shutdown lets a new connection that has
	// sent nothing yet live, as net/http does.
	newConnGrace = 5 * time.Second
)

// Serve accepts connections on ln until Shutdown, applying the
// connection cap (Config.MaxConns: a semaphore taken before each
// Accept and given back when the connection closes). It returns nil
// after a clean Shutdown.
func (s *Server) Serve(ln net.Listener) error {
	if !s.trackListener(ln, true) {
		return nil
	}
	defer s.trackListener(ln, false)
	var sem chan struct{}
	if s.cfg.MaxConns > 0 {
		sem = make(chan struct{}, s.cfg.MaxConns)
	}
	var backoff time.Duration
	for {
		if sem != nil {
			select {
			case sem <- struct{}{}:
			case <-s.quit:
				return nil
			}
		}
		rwc, err := ln.Accept()
		if err != nil {
			if sem != nil {
				<-sem
			}
			if s.shutdown.Load() {
				return nil
			}
			// net/http's rule: back off on a temporary accept error
			// (out of file descriptors) instead of giving up.
			var ne net.Error
			if errors.As(err, &ne) && ne.Temporary() {
				backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
				faults.WallClock{}.Sleep(backoff)
				continue
			}
			return err
		}
		backoff = 0
		c := &conn{s: s, rwc: rwc, sem: sem, accepted: faults.WallClock{}.Now()}
		c.r = connReader{conn: rwc, remain: math.MaxInt64}
		c.br = bufio.NewReaderSize(&c.r, wireBufSize)
		c.bw = bufio.NewWriterSize(rwc, wireBufSize)
		s.trackConn(c, true)
		go c.serve()
	}
}

// Shutdown drains in-flight requests, as http.Server.Shutdown does:
// readiness flips to "draining", the listeners close at once (new
// connections are refused), idle connections are closed, and active
// requests get until ctx expires to finish, each connection closing
// once its request is answered. It returns ctx.Err() if ctx expires
// first, else the listeners' close error.
func (s *Server) Shutdown(ctx context.Context) error {
	s.SetNotReady("draining")
	s.shutdown.Store(true)
	s.quitOnce.Do(func() { close(s.quit) })
	s.mu.Lock()
	lns := s.listeners
	s.listeners = nil
	s.mu.Unlock()
	var lnErr error
	for ln := range lns {
		lnErr = errors.Join(lnErr, ln.Close())
	}
	// Poll as net/http does: from 1ms, doubling up to 500ms.
	poll := time.Millisecond
	//lint:allow detclock the drain polls sockets on wall time; ctx bounds it
	timer := time.NewTimer(poll)
	defer timer.Stop()
	for {
		if s.closeIdleConns() {
			return lnErr
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-timer.C:
			poll = min(2*poll, 500*time.Millisecond)
			timer.Reset(poll)
		}
	}
}

// trackListener adds or removes a listener Serve accepts on; adding
// fails once Shutdown has begun.
func (s *Server) trackListener(ln net.Listener, add bool) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !add {
		delete(s.listeners, ln)
		return true
	}
	if s.shutdown.Load() {
		return false
	}
	if s.listeners == nil {
		s.listeners = make(map[net.Listener]struct{})
	}
	s.listeners[ln] = struct{}{}
	return true
}

func (s *Server) trackConn(c *conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !add {
		delete(s.conns, c)
		return
	}
	if s.conns == nil {
		s.conns = make(map[*conn]struct{})
	}
	s.conns[c] = struct{}{}
}

// closeIdleConns closes every idle connection, and every new one that
// has sent nothing for newConnGrace, reporting whether no other
// connection is left.
func (s *Server) closeIdleConns() bool {
	stale := faults.WallClock{}.Now().Add(-newConnGrace)
	var idle []*conn
	quiescent := true
	s.mu.Lock()
	for c := range s.conns {
		if c.state.CompareAndSwap(connIdle, connClosed) ||
			(c.accepted.Before(stale) && c.state.CompareAndSwap(connNew, connClosed)) {
			delete(s.conns, c)
			idle = append(idle, c)
			continue
		}
		quiescent = false
	}
	s.mu.Unlock()
	for _, c := range idle {
		//lint:allow errsink closing an idle connection; its goroutine sees the read fail and exits
		c.rwc.Close()
	}
	return quiescent
}

// conn is one accepted connection.
type conn struct {
	s   *Server
	rwc net.Conn
	r   connReader
	br  *bufio.Reader
	bw  *bufio.Writer
	// sem is the accept loop's connection cap (nil when uncapped); the
	// connection gives its slot back when it closes.
	sem      chan struct{}
	state    atomic.Int32
	accepted time.Time
	// feat is the codec's feature buffer, reused request to request:
	// nothing past serveObject keeps the vector (see engine.Server).
	feat []float64
	date dateCache
	// armed reports a read deadline is set on rwc.
	armed bool
}

// connReader reads the connection under the byte limit the fallback
// sets while net/http parses a head.
type connReader struct {
	conn   net.Conn
	remain int64
}

func (r *connReader) Read(p []byte) (int, error) {
	if r.remain <= 0 {
		return 0, io.EOF
	}
	if int64(len(p)) > r.remain {
		p = p[:r.remain]
	}
	n, err := r.conn.Read(p)
	r.remain -= int64(n)
	return n, err
}

// serve runs the connection's request loop. Config.RequestTimeout
// bounds each request's head: the first request's from accept, every
// later one's from its first byte. Between requests a connection waits
// with no deadline.
func (c *conn) serve() {
	defer c.close()
	c.arm(c.accepted)
	prev := connNew
	for {
		if c.br.Buffered() == 0 {
			// The next request has not arrived: send what is answered,
			// then wait for it. A pipelined request already buffered
			// keeps the connection active.
			if c.bw.Flush() != nil {
				return
			}
			if prev == connIdle {
				c.state.Store(connIdle)
				if c.s.shutdown.Load() {
					return
				}
			}
			if _, err := c.br.Peek(1); err != nil {
				return
			}
		}
		if prev != connActive && !c.state.CompareAndSwap(prev, connActive) {
			return // Shutdown closed it while idle
		}
		if !c.serveRequest() {
			//lint:allow errsink the connection closes next; a failed flush loses only its last response
			c.bw.Flush()
			return
		}
		prev = connIdle
		if c.br.Buffered() > 0 {
			prev = connActive
		}
	}
}

// close ends the connection and gives back its cap slot.
func (c *conn) close() {
	if rec := recover(); rec != nil && rec != http.ErrAbortHandler {
		// A handler panic net/http would have logged and survived; the
		// connection closes, the daemon serves on.
		c.s.panics.Add(1)
	}
	c.state.Store(connClosed)
	//lint:allow errsink the connection is done; Shutdown may have closed it already
	c.rwc.Close()
	c.s.trackConn(c, false)
	if c.sem != nil {
		<-c.sem
	}
}

// arm sets the head's read deadline, counted from start, unless one is
// already set.
func (c *conn) arm(start time.Time) {
	if !c.armed {
		c.armed = true
		//lint:allow errsink a deadline that cannot be set leaves the read unbounded; the read reports a dead socket itself
		c.rwc.SetReadDeadline(start.Add(c.s.cfg.RequestTimeout))
	}
}

func (c *conn) disarm() {
	if c.armed {
		c.armed = false
		//lint:allow errsink as in arm
		c.rwc.SetReadDeadline(time.Time{})
	}
}

// serveRequest reads and answers one request, reporting whether the
// connection stays open. A head the codec accepts is served inline;
// any other goes to net/http.
func (c *conn) serveRequest() bool {
	for {
		b := buffered(c.br)
		h, n, st := parseObjectHead(b)
		if st == headDone {
			c.disarm()
			return c.serveObject(&h, n)
		}
		if st == headMore && len(b) < c.br.Size() {
			// The head is split across reads: bound the wait, and send
			// any answered pipelined request first.
			c.arm(faults.WallClock{}.Now())
			if c.bw.Flush() != nil {
				return false
			}
			if _, err := c.br.Peek(len(b) + 1); err == nil {
				continue
			}
			// net/http reports the failure as it would have.
		}
		return c.serveFallback()
	}
}

// buffered returns the bytes br has read but not yet handed out.
func buffered(br *bufio.Reader) []byte {
	//lint:allow errsink peeking no further than Buffered never reads, so it cannot fail
	b, _ := br.Peek(br.Buffered())
	return b
}

// serveObject answers a request the codec parsed, n bytes of head, as
// handleObject answers it under recoverPanics.
func (c *conn) serveObject(h *objectHead, n int) (keep bool) {
	defer func() {
		if rec := recover(); rec != nil {
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			c.s.panics.Add(1)
			keep = c.reply(h, n, engine.Outcome{}, errInternal)
		}
	}()
	out, feat, err := serveObject(c.s, h.offer, h.key, h.size, h.feat, c.feat)
	if cap(feat) > cap(c.feat) {
		c.feat = feat[:0]
	}
	return c.reply(h, n, out, err)
}

// errInternal marks a request whose handling panicked.
var errInternal = errors.New("internal error")

// reply consumes the n-byte head h and buffers its response: out's, or
// http.Error's for err (500 for errInternal, else 400). It reports
// whether the connection stays open.
func (c *conn) reply(h *objectHead, n int, out engine.Outcome, err error) bool {
	closing := h.close || c.s.shutdown.Load()
	date := c.date.at(faults.WallClock{}.Now())
	dst := c.bw.AvailableBuffer()
	switch {
	case err == errInternal:
		dst = appendErrorResponse(dst, http.StatusInternalServerError, err.Error(), date, closing)
	case err != nil:
		dst = appendErrorResponse(dst, http.StatusBadRequest, err.Error(), date, closing)
	default:
		dst = appendObjectResponse(dst, out, h.offer, date, closing)
	}
	//lint:allow errsink n bytes are buffered: Discard cannot fail
	c.br.Discard(n)
	if _, err := c.bw.Write(dst); err != nil {
		c.s.encodeErrors.Add(1)
		return false
	}
	return !closing
}

// serveFallback reads one request with http.ReadRequest and answers it
// through Handler(), applying net/http's server-side checks and its
// rules for the response head and the connection's reuse.
func (c *conn) serveFallback() bool {
	c.arm(faults.WallClock{}.Now())
	hosts, counted := hostLines(buffered(c.br))
	c.r.remain = maxHeaderBytes
	req, err := http.ReadRequest(c.br)
	hitLimit := c.r.remain <= 0
	c.r.remain = math.MaxInt64
	c.disarm()
	if err == nil {
		err = checkRequest(req, hosts, counted)
	}
	if err != nil {
		c.writeReadError(err, hitLimit)
		return false
	}
	req.RemoteAddr = c.rwc.RemoteAddr().String()

	var ecr *continueReader
	if hasToken(req.Header.Get("Expect"), "100-continue") {
		if req.ProtoAtLeast(1, 1) && req.ContentLength != 0 {
			ecr = &continueReader{rc: req.Body, bw: c.bw, pending: true}
			req.Body = ecr
		}
	} else if req.Header.Get("Expect") != "" {
		w := newBufferedResponse()
		w.header.Set("Connection", "close")
		w.WriteHeader(http.StatusExpectationFailed)
		c.writeResponse(w, req, nil)
		return false
	}

	w := newBufferedResponse()
	c.s.handler.ServeHTTP(w, req)
	if ecr != nil {
		ecr.stop()
	}
	return c.writeResponse(w, req, ecr)
}

// checkRequest applies the checks http.Server makes on a request
// http.ReadRequest accepted. ReadRequest drops the Host header, so its
// lines are counted in the raw head beforehand (hostLines); for a head
// larger than the read buffer only a request without any host is
// caught.
func checkRequest(req *http.Request, hosts int, counted bool) error {
	if req.ProtoMajor != 1 {
		return statusError{http.StatusHTTPVersionNotSupported, "unsupported protocol version"}
	}
	if req.ProtoAtLeast(1, 1) && req.Method != http.MethodConnect &&
		((counted && hosts == 0) || (!counted && req.Host == "")) {
		return statusError{http.StatusBadRequest, "missing required Host header"}
	}
	if hosts > 1 {
		return statusError{http.StatusBadRequest, "too many Host headers"}
	}
	for k, vv := range req.Header {
		for _, c := range []byte(k) {
			if !isTokenByte(c) {
				return statusError{http.StatusBadRequest, "invalid header name"}
			}
		}
		for _, v := range vv {
			for _, c := range []byte(v) {
				if (c < ' ' && c != '\t') || c == 0x7f {
					return statusError{http.StatusBadRequest, "invalid header value"}
				}
			}
		}
	}
	return nil
}

// hostLines counts the Host lines of the head at the front of b;
// counted is false when the head does not end inside b.
func hostLines(b []byte) (hosts int, counted bool) {
	for first := true; ; first = false {
		i := bytes.IndexByte(b, '\n')
		if i < 0 {
			return hosts, false
		}
		line := bytes.TrimSuffix(b[:i], []byte("\r"))
		b = b[i+1:]
		switch {
		case first:
		case len(line) == 0:
			return hosts, true
		case len(line) >= len("Host:") && asciiEqualFold(line[:len("Host:")], "Host:"):
			hosts++
		}
	}
}

// statusError is a request net/http answers with a status and a reason.
type statusError struct {
	code int
	text string
}

func (e statusError) Error() string { return strconv.Itoa(e.code) + " " + e.text }

// writeReadError answers a request that could not be read, as
// http.Server does: nothing for a dead or timed-out socket, else an
// error status, and the connection closes.
func (c *conn) writeReadError(err error, hitLimit bool) {
	const errorHeaders = "\r\nContent-Type: text/plain; charset=utf-8\r\nConnection: close\r\n\r\n"
	status, body := "400 Bad Request", "400 Bad Request"
	var se statusError
	var ne net.Error
	var oe *net.OpError
	switch {
	case hitLimit:
		status = "431 Request Header Fields Too Large"
		body = status
	case strings.HasPrefix(err.Error(), "unsupported transfer encoding"):
		status, body = "501 Not Implemented", "Unsupported transfer encoding"
	case err == io.EOF, errors.As(err, &ne) && ne.Timeout(), errors.As(err, &oe) && oe.Op == "read":
		return
	case errors.As(err, &se):
		status = fmt.Sprintf("%d %s: %s", se.code, http.StatusText(se.code), se.text)
		body = status
	}
	//lint:allow errsink the connection closes next either way
	c.bw.WriteString("HTTP/1.1 " + status + errorHeaders + body)
}

// continueReader sends "100 Continue" when the handler first reads a
// body the client is waiting to send (Expect: 100-continue), and only
// until the handler returns.
type continueReader struct {
	rc      io.ReadCloser
	bw      *bufio.Writer
	mu      sync.Mutex
	pending bool
	eof     atomic.Bool
}

func (r *continueReader) Read(p []byte) (int, error) {
	r.mu.Lock()
	if r.pending {
		r.pending = false
		//lint:allow errsink a lost 100 Continue shows as the body read failing below
		r.bw.WriteString("HTTP/1.1 100 Continue\r\n\r\n")
		//lint:allow errsink as above
		r.bw.Flush()
	}
	r.mu.Unlock()
	n, err := r.rc.Read(p)
	if err == io.EOF {
		r.eof.Store(true)
	}
	return n, err
}

func (r *continueReader) Close() error { return r.rc.Close() }

// stop ends the window in which Read may send 100 Continue: a handler
// that outlived its request (TimeoutHandler's) must not write into the
// next response.
func (r *continueReader) stop() {
	r.mu.Lock()
	r.pending = false
	r.mu.Unlock()
}

// bufferedResponse is the http.ResponseWriter of a request net/http
// parsed. The handler's status, header and body are kept until it
// returns and then written whole, as net/http writes a response whose
// handler finished inside its buffer. A 1xx status is dropped (the
// handlers send none).
type bufferedResponse struct {
	header http.Header
	status int   // 0 until WriteHeader
	clen   int64 // the Content-Length the handler declared, -1 if none
	body   []byte
}

func newBufferedResponse() *bufferedResponse {
	return &bufferedResponse{header: make(http.Header), clen: -1}
}

func (w *bufferedResponse) Header() http.Header { return w.header }

func (w *bufferedResponse) WriteHeader(code int) {
	if code < 100 || code > 999 {
		panic(fmt.Sprintf("invalid WriteHeader code %v", code))
	}
	if w.status != 0 || code < 200 {
		return
	}
	w.status = code
	if cl := w.header.Get("Content-Length"); cl != "" {
		if v, err := strconv.ParseInt(cl, 10, 64); err == nil && v >= 0 {
			w.clen = v
		} else {
			w.header.Del("Content-Length")
		}
	}
}

func (w *bufferedResponse) Write(p []byte) (int, error) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	if !bodyAllowedForStatus(w.status) {
		return 0, http.ErrBodyNotAllowed
	}
	if w.clen != -1 && int64(len(w.body)+len(p)) > w.clen {
		return 0, http.ErrContentLength
	}
	w.body = append(w.body, p...)
	return len(p), nil
}

func bodyAllowedForStatus(code int) bool {
	return code >= 200 && code != http.StatusNoContent && code != http.StatusNotModified
}

// bufferBeforeChunkingSize is net/http's handler-side buffer: a body
// that outgrows it leaves before the handler returns, so net/http
// cannot add a Content-Length to it.
const bufferBeforeChunkingSize = 2048

// writeResponse writes a finished handler's response to req and
// reports whether the connection stays open, by http.Server's rules
// (chunkWriter.writeHeader): a body within bufferBeforeChunkingSize gets
// a Content-Length, a longer one is chunked (HTTP/1.1) or delimited by
// the close (HTTP/1.0). The handlers set no Transfer-Encoding of their
// own.
func (c *conn) writeResponse(w *bufferedResponse, req *http.Request, ecr *continueReader) (keep bool) {
	if w.status == 0 {
		w.WriteHeader(http.StatusOK)
	}
	h, code, body := w.header, w.status, w.body
	h.Del("Transfer-Encoding")
	isHEAD := req.Method == http.MethodHead
	bodyOK := bodyAllowedForStatus(code)
	var setLen, setType, setConn, setTE string
	if _, ok := h["Content-Length"]; !ok && bodyOK && len(body) <= bufferBeforeChunkingSize && (!isHEAD || len(body) > 0) {
		w.clen = int64(len(body))
		setLen = strconv.Itoa(len(body))
	}

	closeAfter := false
	if req.ProtoMajor == 1 && req.ProtoMinor == 0 && hasToken(req.Header.Get("Connection"), "keep-alive") &&
		(isHEAD || w.clen != -1 || !bodyOK) {
		if _, ok := h["Connection"]; !ok {
			setConn = "keep-alive"
		}
	} else if !req.ProtoAtLeast(1, 1) || req.Close || hasToken(req.Header.Get("Connection"), "close") {
		closeAfter = true
	}
	if h.Get("Connection") == "close" || c.s.shutdown.Load() || (ecr != nil && !ecr.eof.Load()) {
		closeAfter = true
	}
	if req.ContentLength != 0 && !closeAfter {
		// Discard what the handler left of the body, up to a bound, so
		// the next request can be read.
		switch _, err := io.CopyN(io.Discard, req.Body, maxPostHandlerReadBytes+1); err {
		case nil:
			closeAfter = true
			h.Del("Connection")
			setConn = "close"
		case io.EOF:
			closeAfter = req.Body.Close() != nil
		default:
			closeAfter = true
		}
	}
	switch {
	case !bodyOK:
		h.Del("Content-Length")
		if code == http.StatusNotModified {
			h.Del("Content-Type")
		}
	case len(body) > 0 && h.Get("Content-Encoding") == "":
		if _, ok := h["Content-Type"]; !ok {
			setType = http.DetectContentType(body)
		}
	}
	chunked := !isHEAD && bodyOK && w.clen == -1
	if chunked && !req.ProtoAtLeast(1, 1) {
		chunked, closeAfter = false, true
	}
	if chunked {
		setTE = "chunked"
	}
	if closeAfter && (c.s.shutdown.Load() || !hasToken(h.Get("Connection"), "close")) {
		h.Del("Connection")
		setConn = ""
		if req.ProtoAtLeast(1, 1) {
			setConn = "close"
		}
	}

	proto := "HTTP/1.1"
	if !req.ProtoAtLeast(1, 1) {
		proto = "HTTP/1.0"
	}
	if _, err := c.bw.Write(appendStatusLine(c.bw.AvailableBuffer(), proto, code)); err != nil {
		return false
	}
	//lint:allow errsink a failed write shows in the bufio.Writer's sticky error, checked below
	h.Write(c.bw)
	dst := c.bw.AvailableBuffer()
	if _, ok := h["Date"]; !ok {
		dst = append(append(append(dst, "Date: "...), c.date.at(faults.WallClock{}.Now())...), "\r\n"...)
	}
	for _, kv := range [...][2]string{{"Content-Length", setLen}, {"Content-Type", setType},
		{"Connection", setConn}, {"Transfer-Encoding", setTE}} {
		if kv[1] != "" {
			dst = append(append(append(append(dst, kv[0]...), ": "...), kv[1]...), "\r\n"...)
		}
	}
	dst = append(dst, "\r\n"...)
	if chunked && len(body) > 0 {
		dst = append(strconv.AppendInt(dst, int64(len(body)), 16), "\r\n"...)
	}
	if _, err := c.bw.Write(dst); err != nil {
		return false
	}
	if bodyOK && !isHEAD {
		if _, err := c.bw.Write(body); err != nil {
			c.s.encodeErrors.Add(1)
			return false
		}
	}
	if chunked {
		end := "0\r\n\r\n"
		if len(body) > 0 {
			end = "\r\n" + end
		}
		if _, err := c.bw.WriteString(end); err != nil {
			return false
		}
	}
	return !closeAfter && (isHEAD || w.clen == -1 || !bodyOK || w.clen == int64(len(body)))
}

// hasToken reports whether the header value v lists token, ignoring
// ASCII case, by net/http's rule: token bounded on each side by an end
// of v, a space, a tab or a comma.
func hasToken(v, token string) bool {
	for start := 0; start+len(token) <= len(v); start++ {
		end := start + len(token)
		if (start == 0 || isTokenBoundary(v[start-1])) && (end == len(v) || isTokenBoundary(v[end])) &&
			asciiEqualFold(v[start:end], token) {
			return true
		}
	}
	return false
}

func isTokenBoundary(c byte) bool { return c == ' ' || c == ',' || c == '\t' }
