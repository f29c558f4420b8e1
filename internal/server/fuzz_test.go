package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/engine"
)

// newFuzzServer builds a minimal serving stack for parser fuzzing.
// NumFeatures 5 exercises the arity check alongside the float parsing.
func newFuzzServer(tb testing.TB) *Server {
	tb.Helper()
	eng, err := engine.New(cache.NewLRU(1<<20), nil)
	if err != nil {
		tb.Fatal(err)
	}
	return New(eng, Config{NumFeatures: 5})
}

// FuzzParseObjectHeaders hardens the object request parser: arbitrary
// key strings and X-Ota-Size/X-Ota-Feat header bytes must yield either
// an error or a structurally valid (key, size, feat) triple — never a
// panic, never size <= 0, never a feature vector of the wrong arity.
func FuzzParseObjectHeaders(f *testing.F) {
	f.Add("17", "1024", "1,2,3,4,5")
	f.Add("0", "1", "")
	f.Add("not-a-key", "1024", "1,2,3,4,5")
	f.Add("17", "-5", "1,2,3,4,5")
	f.Add("17", "9223372036854775808", "1,2,3,4,5") // int64 overflow
	f.Add("17", "1024", "1,2,3")                    // wrong arity
	f.Add("17", "1024", "NaN,+Inf,-Inf,1e308,5e-324")
	f.Add("17", "1024", ",,,,")
	f.Add("17", "1024", " 1 , 2 ,\t3,4,5")
	srv := newFuzzServer(f)
	f.Fuzz(func(t *testing.T, key, sizeHdr, featHdr string) {
		r := httptest.NewRequest(http.MethodGet, "/object/0", nil)
		r.SetPathValue("key", key)
		if sizeHdr != "" {
			r.Header.Set("X-Ota-Size", sizeHdr)
		}
		if featHdr != "" {
			r.Header.Set("X-Ota-Feat", featHdr)
		}
		_, size, feat, err := srv.parseObject(r)
		if err != nil {
			return
		}
		if size <= 0 {
			t.Fatalf("parseObject accepted size %d", size)
		}
		if feat != nil && len(feat) != 5 {
			t.Fatalf("parseObject accepted %d features, arity is 5", len(feat))
		}
		for i, v := range feat {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Fatalf("parseObject accepted non-finite feature %d: %v", i, v)
			}
		}
	})
}

// FuzzEncodeFeatRoundTrip pins the wire encoding against the server's
// parse: any vector the client encodes must come back element-for-
// element identical (NaN included) through the header grammar.
func FuzzEncodeFeatRoundTrip(f *testing.F) {
	f.Add(1.0, 2.5, -3.75, 0.0, 100.0)
	f.Add(math.NaN(), math.Inf(1), math.Inf(-1), 1e308, 5e-324)
	f.Add(-0.0, 0.1, 1.0/3.0, math.Pi, -math.MaxFloat64)
	f.Fuzz(func(t *testing.T, a, b, c, d, e float64) {
		feat := []float64{a, b, c, d, e}
		encoded := encodeFeat(feat)
		// Decode exactly as parseObject does.
		parts := strings.Split(encoded, ",")
		if len(parts) != len(feat) {
			t.Fatalf("encoded %q splits into %d parts, want %d", encoded, len(parts), len(feat))
		}
		for i, p := range parts {
			got, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
			if err != nil {
				t.Fatalf("element %d %q does not parse: %v", i, p, err)
			}
			want := feat[i]
			if got != want && !(math.IsNaN(got) && math.IsNaN(want)) {
				t.Fatalf("element %d: %v -> %q -> %v", i, want, p, got)
			}
		}
	})
}

// FuzzDecodeObject hardens the client's response decoding: any status
// and header combination must produce either a decoded result (200/404)
// or an error — and 5xx statuses must be tagged retryable for the
// Lookup retry loop.
func FuzzDecodeObject(f *testing.F) {
	f.Add(200, "true", "false", []byte{})
	f.Add(404, "false", "true", []byte("not found"))
	f.Add(500, "", "", []byte("internal error"))
	f.Add(302, "yes", "TRUE", bytes.Repeat([]byte{0}, 8192))
	f.Fuzz(func(t *testing.T, status int, hit, degraded string, body []byte) {
		if status < 100 || status > 999 {
			return
		}
		resp := &http.Response{
			StatusCode: status,
			Status:     http.StatusText(status),
			Header:     http.Header{},
			Body:       io.NopCloser(bytes.NewReader(body)),
		}
		resp.Header.Set("X-Ota-Hit", hit)
		resp.Header.Set("X-Ota-Degraded", degraded)
		res, err := decodeObject(resp)
		ok := status == http.StatusOK || status == http.StatusNotFound
		if ok != (err == nil) {
			t.Fatalf("status %d: err=%v", status, err)
		}
		if err != nil {
			var r5 retryable5xx
			if isRetryable := errors.As(err, &r5); isRetryable != (status >= 500) {
				t.Fatalf("status %d: retryable=%v", status, isRetryable)
			}
			return
		}
		if res.Hit != (hit == "true") || res.Degraded != (degraded == "true") {
			t.Fatalf("decoded %+v from hit=%q degraded=%q", res, hit, degraded)
		}
	})
}

// FuzzObjectHead checks the daemon's object codec against net/http:
// whatever head parseObjectHead accepts, http.ReadRequest (and the
// checks the fallback adds) accepts too, consuming the same bytes, and
// the two agree on the method, the key, X-Ota-Size, X-Ota-Feat and
// whether the connection closes.
func FuzzObjectHead(f *testing.F) {
	for _, h := range []string{
		"GET /object/17 HTTP/1.1\r\nHost: 127.0.0.1:8344\r\nUser-Agent: Go-http-client/1.1\r\nX-Ota-Feat: 0.25,3,1024,0.125,7\r\nX-Ota-Size: 100\r\n\r\n",
		"PUT /object/0 HTTP/1.1\r\nhost: h\r\nContent-Length: 0\r\nx-ota-size:  9 \r\nConnection: close\r\n\r\nGET /",
		"GET /object/1 HTTP/1.1\r\nHost: h\r\nConnection: Keep-Alive\r\nX-Ota-Feat:\t\r\n\r\n",
		"GET /object/1 HTTP/1.1\r\nHost: h\r\nHost: h\r\n\r\n",
		"GET /object/1 HTTP/1.1\r\nHost: h\r\n folded\r\n\r\n",
		"GET /object/1 HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n",
		"GET /object/99999999999999999999 HTTP/1.1\r\nHost: [::1]:80\r\n\r\n",
	} {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		h, n, st := parseObjectHead(b)
		if st != headDone {
			return
		}
		hosts, counted := hostLines(b)
		src := bytes.NewReader(b)
		br := bufio.NewReader(src)
		req, err := http.ReadRequest(br)
		if err == nil {
			err = checkRequest(req, hosts, counted)
		}
		if err != nil {
			t.Fatalf("codec accepted %q; net/http: %v", b[:n], err)
		}
		if consumed := len(b) - br.Buffered() - src.Len(); consumed != n {
			t.Fatalf("codec read %d bytes of head, net/http %d: %q", n, consumed, b)
		}
		method := http.MethodGet
		if h.offer {
			method = http.MethodPut
		}
		got := fmt.Sprintf("%s %s size=%q feat=%q close=%v", method, "/object/"+string(h.key), h.size, h.feat, h.close)
		want := fmt.Sprintf("%s %s size=%q feat=%q close=%v", req.Method, req.URL.RequestURI(),
			req.Header.Get("X-Ota-Size"), req.Header.Get("X-Ota-Feat"), req.Close)
		if got != want || req.ContentLength != 0 || req.TransferEncoding != nil {
			t.Fatalf("%q:\ncodec:    %s\nnet/http: %s (length %d, encoding %v)", b, got, want, req.ContentLength, req.TransferEncoding)
		}
	})
}

// FuzzObjectResponse checks the client's object codec against
// http.ReadResponse and decodeObject: whatever response head
// parseObjectResponse accepts, net/http reads with the same status,
// length and close, consuming the same bytes, and decodes to the same
// result or error.
func FuzzObjectResponse(f *testing.F) {
	for _, h := range []string{
		"HTTP/1.1 404 Not Found\r\nX-Ota-Admitted: true\r\nX-Ota-Hit: false\r\nX-Ota-Predicted-One-Time: false\r\nX-Ota-Rectified: false\r\nX-Ota-Written: true\r\nDate: Mon, 19 Oct 2026 17:06:01 GMT\r\nContent-Length: 5\r\nContent-Type: text/plain; charset=utf-8\r\n\r\nMISS\n",
		"HTTP/1.1 200 OK\r\nx-ota-hit:  true \r\nContent-Length: 4\r\nConnection: close\r\n\r\nHIT\n",
		"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n",
		"HTTP/1.1 400\r\nContent-Length: 3\r\nX-Ota-Degraded: TRUE\r\n\r\nbad",
		"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nHIT\n\r\n0\r\n\r\n",
		"HTTP/1.1 200 OK\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nHIT\n",
	} {
		f.Add([]byte(h))
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		r, n, st := parseObjectResponse(b)
		if st != headDone {
			return
		}
		src := bytes.NewReader(b)
		br := bufio.NewReader(src)
		resp, err := http.ReadResponse(br, &http.Request{Method: http.MethodGet})
		if err != nil {
			t.Fatalf("codec accepted %q; net/http: %v", b[:n], err)
		}
		if consumed := len(b) - br.Buffered() - src.Len(); consumed != n {
			t.Fatalf("codec read %d bytes of head, net/http %d: %q", n, consumed, b)
		}
		res, err := r.decode()
		wantRes, wantErr := decodeObject(resp)
		got := fmt.Sprintf("%d %q length=%d close=%v %+v %v", r.code, r.status, r.length, r.close, res, err)
		want := fmt.Sprintf("%d %q length=%d close=%v %+v %v", resp.StatusCode, resp.Status, resp.ContentLength, resp.Close, wantRes, wantErr)
		if got != want {
			t.Fatalf("%q:\ncodec:    %s\nnet/http: %s", b, got, want)
		}
		var r5 retryable5xx
		if errors.As(err, &r5) != errors.As(wantErr, &r5) {
			t.Fatalf("%q: retryable disagrees: codec %v, net/http %v", b, err, wantErr)
		}
	})
}

// FuzzReadSnapshot hardens the crash-safe state reader: a corrupt or
// truncated snapshot must error out, never panic or wedge the engine —
// the daemon's "restore failed, serving cold" path depends on it.
func FuzzReadSnapshot(f *testing.F) {
	// Seed with the golden snapshot and mutations of it. The golden
	// carries a history table and a tree, so the seeds reach every
	// section of the stream.
	valid := goldenSnapshot(f)
	f.Add(valid)
	f.Add([]byte{})
	f.Add([]byte{0x10, 0x75, 0xa2, 0x0c}) // magic only
	// Truncation corpus: cuts through every structural region of the v2
	// stream — mid-header, mid-count, mid-resident-record, and just shy
	// of complete — seed the decode-fully-then-apply guarantee below.
	for _, cut := range []int{2, 4, 6, 8, 12, 18, 20, 21, 24, 27, len(valid) / 4,
		len(valid) / 2, 3 * len(valid) / 4, len(valid) - 1} {
		f.Add(valid[:cut])
	}
	// Corruptions only a complete decode can see: each presence byte
	// set to 2, a table tick outside [0, header tick], and a trailing
	// byte.
	presence, _ := presenceOffsets(f, valid)
	for _, off := range presence {
		b := bytes.Clone(valid)
		b[off] = 2
		f.Add(b)
	}
	for _, b := range corruptTicks(f, valid) {
		f.Add(b)
	}
	f.Add(append(bytes.Clone(valid), 0))
	f.Fuzz(func(t *testing.T, data []byte) {
		target := goldenEngine(t)
		res, err := ReadSnapshot(bytes.NewReader(data), target)
		if err != nil {
			requireCold(t, target, "failed restore")
			return
		}
		if res.Tick < 0 || res.Residents < 0 {
			t.Fatalf("accepted snapshot with invalid summary %+v", res)
		}
	})
}
