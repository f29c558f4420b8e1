package main

import (
	"bytes"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"

	"otacache/internal/features"
	"otacache/internal/server"
	"otacache/internal/stack"
	"otacache/internal/trace"
)

// daemon serves one stack.Build assembly behind server.New on loopback
// and counts the object requests that arrive carrying features.
func daemon(t *testing.T, tr *trace.Trace, mode string, flashSegment int64) (url string, featured *atomic.Int64) {
	t.Helper()
	cfg := stack.Defaults()
	cfg.Mode, cfg.Shards, cfg.EngineShards = mode, 2, 2
	cfg.FlashSegmentSize = flashSegment
	st, err := stack.Build(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	h := server.New(st.Server, server.Config{NumFeatures: len(features.PaperSelected())}).Handler()
	featured = new(atomic.Int64)
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasPrefix(r.URL.Path, "/object/") && r.Header.Get("X-Ota-Feat") != "" {
			featured.Add(1)
		}
		h.ServeHTTP(w, r)
	}))
	t.Cleanup(hs.Close)
	return hs.URL, featured
}

// TestRunFeaturesAutoAndFlashLine replays against a classifier daemon
// and an admit-all daemon with a flash store. -features auto must send
// features to the first (it answers 400 to a featureless lookup, so a
// wrong choice fails the run on its error rate) and none to the second,
// and only the flash-attached daemon's report carries the flash line.
func TestRunFeaturesAutoAndFlashLine(t *testing.T) {
	const photos, seed, requests = 1500, 3, 1500
	tr, err := trace.Generate(trace.DefaultConfig(seed, photos))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		mode         string
		flashSegment int64
		wantFeatures bool
	}{
		{"proposal", 0, true},
		{"original", 4096, false},
	} {
		t.Run(tc.mode, func(t *testing.T) {
			url, featured := daemon(t, tr, tc.mode, tc.flashSegment)
			var out bytes.Buffer
			err := run([]string{"-addr", url, "-photos", strconv.Itoa(photos), "-seed", strconv.Itoa(seed),
				"-n", strconv.Itoa(requests), "-workers", "2", "-features", "auto", "-retries", "1"}, &out)
			if err != nil {
				t.Fatalf("run: %v\n%s", err, out.String())
			}
			report := out.String()
			if !strings.Contains(report, fmt.Sprintf("requests:          %d (0 errors)", requests)) {
				t.Errorf("report does not show %d clean requests:\n%s", requests, report)
			}
			want := int64(0)
			if tc.wantFeatures {
				want = requests
			}
			if got := featured.Load(); got != want {
				t.Errorf("%d of %d lookups carried features, want %d", got, requests, want)
			}
			if got := strings.Contains(report, "\nflash: host "); got != (tc.flashSegment > 0) {
				t.Errorf("flash line printed = %v with segment size %d:\n%s", got, tc.flashSegment, report)
			}
		})
	}
}
