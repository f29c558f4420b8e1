package server

import (
	"bytes"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"otacache/internal/engine"
)

// The object codec: GET and PUT /object/<decimal>, the one request the
// serving hot path carries, parsed and answered without net/http at
// both ends of the round trip. Each side accepts only a narrow shape
// and hands everything else to net/http's own parser (http.ReadRequest
// on the daemon, http.ReadResponse on the client), so a request or
// response the codec declines is served exactly as before; the fuzz
// targets check that whatever the codec accepts, net/http reads the
// same way.

// wireBufSize is both ends' read and write buffer: a head the codec
// accepts lies wholly inside one.
const wireBufSize = 4096

// headState is what a parse of the buffered bytes found.
type headState uint8

const (
	headDone   headState = iota // a complete head the codec accepts
	headMore                    // no end of head yet: read more bytes
	headReject                  // not the codec's shape: net/http reads it
)

// objectHead is one request head the codec accepted. The slices alias
// the connection's read buffer and are valid until the next read.
type objectHead struct {
	offer bool   // PUT (admission only) rather than GET
	key   []byte // the decimal key segment
	size  []byte // the X-Ota-Size value, nil when absent
	feat  []byte // the X-Ota-Feat value, nil when absent
	close bool   // Connection: close
}

// parseObjectHead reads one request head from the front of b. It
// accepts exactly:
//   - the request line GET|PUT /object/<decimal> HTTP/1.1;
//   - CRLF-terminated header lines whose name is a token and whose
//     value holds printable ASCII and tabs only;
//   - exactly one Host, and at most one X-Ota-Size and one X-Ota-Feat;
//   - Content-Length absent or 0, and Connection keep-alive or close;
//   - no Transfer-Encoding, Expect, Upgrade or Trailer.
//
// n is the head's length, the blank line included.
func parseObjectHead(b []byte) (h objectHead, n int, st headState) {
	line, rest, st := nextLine(b)
	if st != headDone {
		return h, 0, st
	}
	switch {
	case bytes.HasPrefix(line, []byte("GET /object/")):
	case bytes.HasPrefix(line, []byte("PUT /object/")):
		h.offer = true
	default:
		return h, 0, headReject
	}
	line = line[len("GET /object/"):]
	digits := 0
	for digits < len(line) && line[digits] >= '0' && line[digits] <= '9' {
		digits++
	}
	if digits == 0 || string(line[digits:]) != " HTTP/1.1" {
		return h, 0, headReject
	}
	h.key = line[:digits]
	hosts := 0
	var seenLen, seenConn bool
	for {
		var name, value []byte
		name, value, rest, st = nextHeader(rest)
		switch {
		case st != headDone:
			return h, 0, st
		case name == nil: // the blank line
			if hosts != 1 {
				return h, 0, headReject
			}
			return h, len(b) - len(rest), headDone
		case asciiEqualFold(name, "Host"):
			if !validHost(value) {
				return h, 0, headReject
			}
			hosts++
		case asciiEqualFold(name, "X-Ota-Size"):
			if h.size != nil {
				return h, 0, headReject
			}
			h.size = value
		case asciiEqualFold(name, "X-Ota-Feat"):
			if h.feat != nil {
				return h, 0, headReject
			}
			h.feat = value
		case asciiEqualFold(name, "Content-Length"):
			if seenLen || string(value) != "0" {
				return h, 0, headReject
			}
			seenLen = true
		case asciiEqualFold(name, "Connection"):
			switch {
			case seenConn:
				return h, 0, headReject
			case asciiEqualFold(value, "close"):
				h.close = true
			case !asciiEqualFold(value, "keep-alive"):
				return h, 0, headReject
			}
			seenConn = true
		case asciiEqualFold(name, "Transfer-Encoding"), asciiEqualFold(name, "Expect"),
			asciiEqualFold(name, "Upgrade"), asciiEqualFold(name, "Trailer"):
			return h, 0, headReject
		}
	}
}

// nextLine splits the CRLF-terminated line at the front of b from the
// rest. A line ending in a bare LF is rejected: net/http accepts it,
// the codec leaves it to net/http.
func nextLine(b []byte) (line, rest []byte, st headState) {
	i := bytes.IndexByte(b, '\n')
	switch {
	case i < 0:
		return nil, nil, headMore
	case i == 0 || b[i-1] != '\r':
		return nil, nil, headReject
	}
	return b[:i-1], b[i+1:], headDone
}

// nextHeader reads one header line from the front of b, its value
// trimmed of spaces and tabs as textproto trims it. name is nil at the
// blank line that ends the head; value is never nil for a header.
func nextHeader(b []byte) (name, value, rest []byte, st headState) {
	line, rest, st := nextLine(b)
	if st != headDone || len(line) == 0 {
		return nil, nil, rest, st
	}
	colon := bytes.IndexByte(line, ':')
	if colon <= 0 {
		return nil, nil, nil, headReject
	}
	name = line[:colon]
	for _, c := range name {
		if !isTokenByte(c) {
			return nil, nil, nil, headReject
		}
	}
	value = line[colon+1:]
	for _, c := range value {
		if (c < ' ' && c != '\t') || c > '~' {
			return nil, nil, nil, headReject
		}
	}
	for len(value) > 0 && (value[0] == ' ' || value[0] == '\t') {
		value = value[1:]
	}
	for len(value) > 0 && (value[len(value)-1] == ' ' || value[len(value)-1] == '\t') {
		value = value[:len(value)-1]
	}
	return name, value, rest, headDone
}

// isTokenByte reports whether c may appear in a header name (RFC 9110
// tchar).
func isTokenByte(c byte) bool {
	switch {
	case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		return true
	}
	return bytes.IndexByte([]byte("!#$%&'*+-.^_`|~"), c) >= 0
}

// validHost accepts the Host values the codec serves: names, IPv4 and
// bracketed IPv6 addresses with an optional port. Anything else is
// net/http's to judge.
func validHost(v []byte) bool {
	for _, c := range v {
		switch {
		case 'a' <= c && c <= 'z', 'A' <= c && c <= 'Z', '0' <= c && c <= '9':
		case c == '.' || c == '-' || c == ':' || c == '[' || c == ']' || c == '_':
		default:
			return false
		}
	}
	return true
}

// asciiEqualFold compares a header name or token to its canonical form
// ignoring ASCII case.
func asciiEqualFold[T text](b T, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		x, y := b[i], s[i]
		if 'A' <= x && x <= 'Z' {
			x += 'a' - 'A'
		}
		if 'A' <= y && y <= 'Z' {
			y += 'a' - 'A'
		}
		if x != y {
			return false
		}
	}
	return true
}

// The object route's response, shared by handleObject (through an
// http.ResponseWriter) and the codec (as bytes).

// objectStatus is the status and body answering a served object
// request: a hit or an offer is 200, a miss 404.
func objectStatus(out engine.Outcome, offer bool) (int, string) {
	switch {
	case offer:
		return http.StatusOK, "OFFERED\n"
	case out.Hit:
		return http.StatusOK, "HIT\n"
	}
	return http.StatusNotFound, "MISS\n"
}

// objectHeaders emits the X-Ota-* headers of a served object request in
// the order net/http writes headers (sorted by name): a hit carries
// X-Ota-Hit alone, a miss and an offer the admission decision.
func objectHeaders(out engine.Outcome, offer bool, header func(name string, v bool)) {
	if !offer && out.Hit {
		header("X-Ota-Hit", true)
		return
	}
	d := out.Decision
	header("X-Ota-Admitted", d.Admit)
	if d.Degraded {
		header("X-Ota-Degraded", true)
	}
	if !offer {
		header("X-Ota-Hit", false)
	}
	header("X-Ota-Predicted-One-Time", d.PredictedOneTime)
	header("X-Ota-Rectified", d.Rectified)
	header("X-Ota-Written", out.Written)
}

// appendStatusLine appends a status line as net/http writes it; proto
// is HTTP/1.1, or HTTP/1.0 answering a 1.0 request.
func appendStatusLine(dst []byte, proto string, code int) []byte {
	dst = append(dst, proto...)
	dst = append(dst, ' ')
	dst = strconv.AppendInt(dst, int64(code), 10)
	dst = append(dst, ' ')
	if text := http.StatusText(code); text != "" {
		dst = append(dst, text...)
	} else {
		dst = append(dst, "status code "...)
		dst = strconv.AppendInt(dst, int64(code), 10)
	}
	return append(dst, "\r\n"...)
}

// appendObjectResponse appends the response net/http sends for a
// served object request: the decision headers, Date, Content-Length,
// the Content-Type net/http sniffs from the body, and Connection: close
// when the connection ends with it.
func appendObjectResponse(dst []byte, out engine.Outcome, offer bool, date []byte, close bool) []byte {
	code, body := objectStatus(out, offer)
	dst = appendStatusLine(dst, "HTTP/1.1", code)
	objectHeaders(out, offer, func(name string, v bool) {
		dst = append(dst, name...)
		if v {
			dst = append(dst, ": true\r\n"...)
		} else {
			dst = append(dst, ": false\r\n"...)
		}
	})
	return appendBody(dst, date, "text/plain; charset=utf-8", body, close)
}

// appendErrorResponse appends what http.Error(w, msg, code) sends.
func appendErrorResponse(dst []byte, code int, msg string, date []byte, close bool) []byte {
	dst = appendStatusLine(dst, "HTTP/1.1", code)
	dst = append(dst, "Content-Type: text/plain; charset=utf-8\r\nX-Content-Type-Options: nosniff\r\n"...)
	return appendBody(dst, date, "", msg+"\n", close)
}

// appendBody ends a head with the headers net/http adds itself (Date,
// Content-Length, and a Content-Type it sniffed unless ctype is
// empty, then Connection: close when the connection ends here) and
// appends the body.
func appendBody(dst, date []byte, ctype, body string, close bool) []byte {
	dst = append(dst, "Date: "...)
	dst = append(dst, date...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	if ctype != "" {
		dst = append(dst, "\r\nContent-Type: "...)
		dst = append(dst, ctype...)
	}
	if close {
		dst = append(dst, "\r\nConnection: close"...)
	}
	dst = append(dst, "\r\n\r\n"...)
	return append(dst, body...)
}

// dateCache holds one connection's Date header value, reformatted when
// the second changes.
type dateCache struct {
	sec int64
	buf []byte
}

// at returns the Date value for t (http.TimeFormat).
func (d *dateCache) at(t time.Time) []byte {
	if sec := t.Unix(); sec != d.sec || d.buf == nil {
		d.sec = sec
		d.buf = t.UTC().AppendFormat(d.buf[:0], http.TimeFormat)
	}
	return d.buf
}

// The client half.

// appendObjectRequest appends the bytes (*http.Request).Write writes
// for the request Client.newObjectRequest builds: target is the
// request-URI up to the key, host the Host header. TestObjectRequestBytes
// pins the equality, and NewClient checks it for its own base URL
// before it uses the codec.
func appendObjectRequest(dst []byte, method, target, host string, key uint64, size int64, feat []float64) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, target...)
	dst = strconv.AppendUint(dst, key, 10)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, "\r\nUser-Agent: Go-http-client/1.1\r\n"...)
	if method == http.MethodPut {
		// net/http declares an empty PUT body.
		dst = append(dst, "Content-Length: 0\r\n"...)
	}
	if len(feat) > 0 {
		dst = append(dst, "X-Ota-Feat: "...)
		dst = appendFeat(dst, feat)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "X-Ota-Size: "...)
	dst = strconv.AppendInt(dst, size, 10)
	return append(dst, "\r\n\r\n"...)
}

// objectResponse is a response head the client codec accepted.
type objectResponse struct {
	code   int
	status []byte // the status line past "HTTP/1.1 ", as http.Response.Status
	length int    // Content-Length
	close  bool   // Connection: close
	res    LookupResult
}

// parseObjectResponse reads one response head from the front of b. It
// accepts an HTTP/1.1 status line with a status of 200 or above other
// than 204 and 304, exactly one decimal Content-Length, Connection
// keep-alive or close at most once, each X-Ota-* header at most once,
// and no Transfer-Encoding, with header lines as parseObjectHead takes
// them. n is the head's length, the blank line included.
func parseObjectResponse(b []byte) (r objectResponse, n int, st headState) {
	line, rest, st := nextLine(b)
	if st != headDone {
		return r, 0, st
	}
	if len(line) < len("HTTP/1.1 200") || string(line[:len("HTTP/1.1 ")]) != "HTTP/1.1 " {
		return r, 0, headReject
	}
	r.status = line[len("HTTP/1.1 "):]
	for _, c := range r.status[:3] {
		if c < '0' || c > '9' {
			return r, 0, headReject
		}
		r.code = r.code*10 + int(c-'0')
	}
	if reason := r.status[3:]; len(reason) > 0 && reason[0] != ' ' {
		return r, 0, headReject
	}
	for _, c := range r.status {
		if (c < ' ' && c != '\t') || c > '~' {
			return r, 0, headReject
		}
	}
	if r.code < 200 || r.code == http.StatusNoContent || r.code == http.StatusNotModified {
		return r, 0, headReject
	}
	r.length = -1
	var seenConn bool
	var seen uint8 // one bit per X-Ota-* header
	for {
		var name, value []byte
		name, value, rest, st = nextHeader(rest)
		switch {
		case st != headDone:
			return r, 0, st
		case name == nil:
			if r.length < 0 {
				return r, 0, headReject
			}
			return r, len(b) - len(rest), headDone
		case asciiEqualFold(name, "Content-Length"):
			if r.length >= 0 || len(value) == 0 || len(value) > 9 {
				return r, 0, headReject
			}
			r.length = 0
			for _, c := range value {
				if c < '0' || c > '9' {
					return r, 0, headReject
				}
				r.length = r.length*10 + int(c-'0')
			}
		case asciiEqualFold(name, "Connection"):
			switch {
			case seenConn:
				return r, 0, headReject
			case asciiEqualFold(value, "close"):
				r.close = true
			case !asciiEqualFold(value, "keep-alive"):
				return r, 0, headReject
			}
			seenConn = true
		case asciiEqualFold(name, "Transfer-Encoding"):
			return r, 0, headReject
		default:
			bit, flag := r.res.flag(name)
			if flag == nil {
				continue
			}
			if seen&bit != 0 {
				return r, 0, headReject
			}
			seen |= bit
			*flag = string(value) == "true"
		}
	}
}

// flag maps an X-Ota-* response header to its LookupResult field and a
// bit of its own (nil for any other header).
func (res *LookupResult) flag(name []byte) (uint8, *bool) {
	switch {
	case asciiEqualFold(name, "X-Ota-Hit"):
		return 1 << 0, &res.Hit
	case asciiEqualFold(name, "X-Ota-Admitted"):
		return 1 << 1, &res.Admitted
	case asciiEqualFold(name, "X-Ota-Written"):
		return 1 << 2, &res.Written
	case asciiEqualFold(name, "X-Ota-Rectified"):
		return 1 << 3, &res.Rectified
	case asciiEqualFold(name, "X-Ota-Predicted-One-Time"):
		return 1 << 4, &res.PredictedOneTime
	case asciiEqualFold(name, "X-Ota-Degraded"):
		return 1 << 5, &res.Degraded
	}
	return 0, nil
}

// decode is decodeObject for a head the codec read: the result of a
// 200 or 404, an error naming any other status (retryable from 500 up).
func (r *objectResponse) decode() (LookupResult, error) {
	if r.code == http.StatusOK || r.code == http.StatusNotFound {
		return r.res, nil
	}
	err := fmt.Errorf("server: %s", r.status)
	if r.code >= 500 {
		return LookupResult{}, retryable5xx{err}
	}
	return LookupResult{}, err
}
