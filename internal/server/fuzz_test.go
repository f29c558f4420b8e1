package server

import (
	"bytes"
	"errors"
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
