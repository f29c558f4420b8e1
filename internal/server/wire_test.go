package server

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"sort"
	"strings"
	"testing"
	"time"

	"otacache/internal/faults"
)

// TestServeMatchesHandler is the differential wire test: each request
// sequence goes, as raw bytes on a socket, to Serve and to net/http's
// own server around Handler() (the one test that still serves Handler
// under httptest). Read back with http.ReadResponse, the two must
// agree on every response's protocol, status, X-Ota-* headers,
// Content-Type, Content-Length and body, and on whether the connection
// stays open after the last one. Each case runs on two fresh servers
// with a fake clock, so their /metrics pages are byte for byte equal.
func TestServeMatchesHandler(t *testing.T) {
	const host = "Host: otacache\r\n"
	get := func(path, hdrs string) string {
		return "GET " + path + " HTTP/1.1\r\n" + host + hdrs + "\r\n"
	}
	const size = "X-Ota-Size: 10\r\n"
	pad := "X-Pad: " + strings.Repeat("p", 2*wireBufSize) + "\r\n"
	for _, tc := range []struct {
		name string
		reqs []string // each written after the previous response is read
	}{
		{"hit", []string{
			"PUT /object/1 HTTP/1.1\r\n" + host + size + "Content-Length: 0\r\n\r\n",
			get("/object/1", size),
		}},
		{"miss", []string{get("/object/5", size+"X-Ota-Feat: 1,2,3,4,5\r\n")}},
		{"put-content-length-0", []string{"PUT /object/1 HTTP/1.1\r\n" + host + size + "Content-Length: 0\r\n\r\n"}},
		{"head", []string{"HEAD /object/1 HTTP/1.1\r\n" + host + size + "\r\n"}},
		{"http-1.0", []string{"GET /object/1 HTTP/1.0\r\n" + size + "\r\n"}},
		{"http-1.0-keep-alive", []string{"GET /object/1 HTTP/1.0\r\n" + size + "Connection: keep-alive\r\n\r\n"}},
		{"query-string", []string{get("/object/1?x=1", size)}},
		{"connection-close", []string{get("/object/1", size+"Connection: close\r\n")}},
		{"duplicate-size", []string{get("/object/1", size+"X-Ota-Size: 20\r\n")}},
		{"bad-size", []string{get("/object/1", "X-Ota-Size: abc\r\n")}},
		{"missing-size", []string{get("/object/1", "")}},
		{"nan-feature", []string{get("/object/1", size+"X-Ota-Feat: 1,NaN,3,4,5\r\n")}},
		{"wrong-arity", []string{get("/object/1", size+"X-Ota-Feat: 1,2\r\n")}},
		{"key-out-of-range", []string{get("/object/18446744073709551616", size)}},
		{"oversized-head", []string{get("/object/1", size+pad)}},
		{"expect-100-continue", []string{
			"PUT /object/1 HTTP/1.1\r\n" + host + size + "Expect: 100-continue\r\nContent-Length: 5\r\n\r\nhello",
		}},
		{"expect-unknown", []string{get("/object/1", size+"Expect: teapot\r\n")}},
		{"chunked-put", []string{
			"PUT /object/1 HTTP/1.1\r\n" + host + size + "Transfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n",
			get("/object/1", size),
		}},
		{"pipelined-pair", []string{get("/object/1", size) + get("/object/1", size)}},
		{"lf-line-endings", []string{"GET /object/1 HTTP/1.1\nHost: otacache\nX-Ota-Size: 10\n\n"}},
		{"missing-host", []string{"GET /object/1 HTTP/1.1\r\n" + size + "\r\n"}},
		{"empty-host", []string{"GET /object/1 HTTP/1.1\r\nHost:\r\n" + size + "\r\n"}},
		{"duplicate-host", []string{get("/object/1", size+host)}},
		{"malformed-request-line", []string{"GET /object/1\r\n" + host + "\r\n"}},
		{"metrics", []string{get("/metrics", "")}},
		{"healthz", []string{get("/healthz", "")}},
		{"unknown-path", []string{get("/nope", "")}},
		{"redirect", []string{get("/object//1", size)}},
		{"method-not-allowed", []string{"DELETE /object/1 HTTP/1.1\r\n" + host + "\r\n"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			newServer := func() *Server {
				return New(newTestEngine(t, nil), Config{NumFeatures: 5, Clock: faults.NewFakeClock()})
			}
			ref := httptest.NewServer(newServer().Handler())
			t.Cleanup(ref.Close)
			want := converse(t, strings.TrimPrefix(ref.URL, "http://"), tc.reqs)
			got := converse(t, strings.TrimPrefix(serveTest(t, newServer()).URL, "http://"), tc.reqs)
			if got != want {
				t.Errorf("Serve answered\n%s\nnet/http answered\n%s", got, want)
			}
		})
	}
}

// converse writes each raw request chunk to a fresh connection to addr,
// reads the responses it asks for, and renders what the comparison
// covers; the last line says whether the server kept the connection.
func converse(t *testing.T, addr string, reqs []string) string {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(5 * time.Second)); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(conn)
	var out strings.Builder
	for _, chunk := range reqs {
		if _, err := io.WriteString(conn, chunk); err != nil {
			t.Fatal(err)
		}
		// One response per request line in the chunk: a method, then a
		// path.
		for _, line := range strings.Split(chunk, "\n") {
			method, target, _ := strings.Cut(line, " ")
			if method == "" || method != strings.ToUpper(method) || !strings.HasPrefix(target, "/") {
				continue
			}
			resp, err := http.ReadResponse(br, &http.Request{Method: method})
			if err != nil {
				fmt.Fprintf(&out, "read error: %v\n", err)
				return out.String()
			}
			body, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			if err != nil {
				t.Fatal(err)
			}
			var ota []string
			for k, v := range resp.Header {
				if strings.HasPrefix(k, "X-Ota-") {
					ota = append(ota, k+"="+strings.Join(v, ","))
				}
			}
			sort.Strings(ota)
			fmt.Fprintf(&out, "%s %s ota=%v type=%q length=%d/%q close=%v body=%q\n",
				resp.Proto, resp.Status, ota, resp.Header.Get("Content-Type"),
				resp.ContentLength, resp.Header.Get("Content-Length"), resp.Close, body)
		}
	}
	// An open connection times out; a closed one reads EOF or a reset.
	if err := conn.SetReadDeadline(time.Now().Add(200 * time.Millisecond)); err != nil {
		t.Fatal(err)
	}
	_, err = br.Peek(1)
	fmt.Fprintf(&out, "open=%v\n", errors.Is(err, os.ErrDeadlineExceeded))
	return out.String()
}

// TestObjectRequestBytes pins the client codec's request against
// (*http.Request).Write of the request newObjectRequest builds, for a
// GET with features, a GET without, and a PUT, under a base URL with
// and without a path.
func TestObjectRequestBytes(t *testing.T) {
	for _, base := range []string{"http://127.0.0.1:8344", "http://cache.example:80/tier/"} {
		c := NewClient(base, 1)
		p := c.rt.(*connPool)
		if p.target == "" {
			t.Fatalf("%s: the codec is off", base)
		}
		for _, tc := range []struct {
			method string
			feat   []float64
		}{
			{http.MethodGet, benchFeat},
			{http.MethodGet, nil},
			{http.MethodPut, benchFeat},
		} {
			req, err := c.newObjectRequest(tc.method, 1234567, 4096, tc.feat)
			if err != nil {
				t.Fatal(err)
			}
			var want bytes.Buffer
			if err := req.Write(&want); err != nil {
				t.Fatal(err)
			}
			got := appendObjectRequest(nil, tc.method, p.target, p.host, 1234567, 4096, tc.feat)
			if !bytes.Equal(got, want.Bytes()) {
				t.Errorf("%s %s feat=%v:\ncodec:    %q\nnet/http: %q", base, tc.method, tc.feat, got, want.Bytes())
			}
		}
	}
}

// TestObjectRoundTripAllocs pins the object round trip's allocations:
// Client.Lookup with features against Serve on loopback, client and
// daemon together (AllocsPerRun counts every goroutine's mallocs).
// The key cycles over a resident set, so the engine runs its steady
// state: hits, and misses whose admissions evict.
func TestObjectRoundTripAllocs(t *testing.T) {
	c := NewClient(serveTest(t, newBenchServer(t)).URL, 1)
	c.SetRetry(RetryConfig{MaxAttempts: 1})
	key := uint64(0)
	lookup := func() {
		key++
		if _, err := c.Lookup(key%1024+1, 100, benchFeat); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 4096; i++ {
		lookup()
	}
	if allocs := testing.AllocsPerRun(2000, lookup); allocs > 0 {
		t.Fatalf("%.2f allocations per object round trip, want 0", allocs)
	}
}
