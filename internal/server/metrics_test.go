package server

import (
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"os"
	"reflect"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"otacache/internal/engine"
	"otacache/internal/faults"
	"otacache/internal/obs"
	"otacache/internal/stack"
	"otacache/internal/trace"
)

// tinyTrace is a bootstrap trace for stacks sized by Bytes, which
// use it for nothing else.
func tinyTrace(t *testing.T) *trace.Trace {
	t.Helper()
	tr, err := trace.Generate(trace.DefaultConfig(1, 100))
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestSnakeCase(t *testing.T) {
	cases := map[string]string{
		"Requests":            "requests",
		"HitBytes":            "hit_bytes",
		"TotalBytes":          "total_bytes",
		"FlashGCBytes":        "flash_gc_bytes",
		"FlashReadErrors":     "flash_read_errors",
		"FlashCorruptExtents": "flash_corrupt_extents",
		"WAF":                 "waf",
	}
	for in, want := range cases {
		if got := snakeCase(in); got != want {
			t.Errorf("snakeCase(%q) = %q, want %q", in, got, want)
		}
	}
	if got := MetricName("FlashGCBytes"); got != "ota_flash_gc_bytes_total" {
		t.Errorf("MetricName = %q", got)
	}
	if got := ShardMetricName("Hits"); got != "ota_shard_hits_total" {
		t.Errorf("ShardMetricName = %q", got)
	}
}

// shardedObsEngine builds a 2-shard engine, each shard a threshold-tree
// classifier admission behind a breaker, with flash attached — the
// widest serving composition, so the exposition test covers every
// metric family, from a classifier the golden can pin.
func shardedObsEngine(t testing.TB) *engine.ShardedEngine {
	t.Helper()
	shards := make([]*engine.Engine, 2)
	for i := range shards {
		adm := trainThresholdTree(t, 0.5, false)
		br, err := engine.NewBreaker(adm, engine.BreakerConfig{})
		if err != nil {
			t.Fatal(err)
		}
		shards[i] = newTestEngine(t, br)
	}
	se, err := engine.NewShardedEngine(shards, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := engine.AttachFlash(se, 64<<10, 1.15); err != nil {
		t.Fatal(err)
	}
	return se
}

// sampleIndex groups parsed samples by metric name.
func sampleIndex(samples []obs.Sample) map[string][]obs.Sample {
	idx := make(map[string][]obs.Sample)
	for _, s := range samples {
		idx[s.Name] = append(idx[s.Name], s)
	}
	return idx
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/*.golden from the current output")

// counterLines keeps the lines of a /metrics page that belong to the
// engine.Metrics families (aggregate and per-shard): HELP, TYPE and
// samples, in page order.
func counterLines(page string) string {
	families := make(map[string]bool)
	mt := reflect.TypeOf(engine.Metrics{})
	for i := 0; i < mt.NumField(); i++ {
		families[MetricName(mt.Field(i).Name)] = true
		families[ShardMetricName(mt.Field(i).Name)] = true
	}
	var b strings.Builder
	for _, line := range strings.Split(page, "\n") {
		name := line
		if strings.HasPrefix(line, "# HELP ") || strings.HasPrefix(line, "# TYPE ") {
			name = strings.Fields(line)[2]
		} else if i := strings.IndexAny(line, "{ "); i >= 0 {
			name = line[:i]
		}
		if families[name] {
			b.WriteString(line)
			b.WriteByte('\n')
		}
	}
	return b.String()
}

// TestMetricsExposition is the golden /metrics contract: scrape a
// loopback daemon and pin the engine.Metrics families (one aggregate
// and one per-shard family per field, found by reflection) byte for
// byte against testdata/metrics_counters.golden, so a counter added to
// Metrics fails this test until the exposition carries it (regenerate
// with -update only for a deliberate wire change). Parsed back, the
// counters must equal the engines' snapshots.
func TestMetricsExposition(t *testing.T) {
	se := shardedObsEngine(t)
	srv := New(se, Config{
		Clock:       faults.NewFakeClock(),
		SampleEvery: 1, TraceSampleEvery: 1,
	})
	_, c := startTestServer(t, srv)

	feat := []float64{0.2, 0, 0, 0, 0}
	for key := uint64(0); key < 64; key++ {
		if _, err := c.Lookup(key, 4<<10, feat); err != nil {
			t.Fatal(err)
		}
	}
	for key := uint64(0); key < 32; key++ { // re-hit half the set
		if _, err := c.Lookup(key, 4<<10, feat); err != nil {
			t.Fatal(err)
		}
	}

	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	idx := sampleIndex(samples)

	page, err := c.MetricsText()
	if err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/metrics_counters.golden"
	got := counterLines(page)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("counter families differ from %s:\n got:\n%s\nwant:\n%s", golden, got, want)
	}

	// Read back through the client's view, every counter equals the
	// engines' own snapshots, in aggregate and per shard.
	st, err := newScrape(samples)
	if err != nil {
		t.Fatal(err)
	}
	if want := se.Snapshot(); st.Cumulative != want {
		t.Errorf("scraped counters %+v, Snapshot %+v", st.Cumulative, want)
	}
	if len(st.Shards) != len(se.Shards()) {
		t.Fatalf("scrape has %d shards, want %d", len(st.Shards), len(se.Shards()))
	}
	for i, sh := range se.Shards() {
		if want := sh.Snapshot(); st.Shards[i] != want {
			t.Errorf("shard %d scraped %+v, Snapshot %+v", i, st.Shards[i], want)
		}
	}

	// The serving gauges.
	for name, want := range map[string]float64{
		"ota_engine_shards": 2,
		"ota_ready":         1,
	} {
		got := idx[name]
		if len(got) != 1 || got[0].Value != want {
			t.Errorf("%s = %+v, want single sample %v", name, got, want)
		}
	}

	// Latency families: with SampleEvery 1 every stage that ran must
	// have counted, and every family must exist even if idle.
	for name, active := range map[string]bool{
		"ota_http_request_duration_seconds":     true,
		"ota_lookup_duration_seconds":           true,
		"ota_classifier_duration_seconds":       true,
		"ota_flash_write_duration_seconds":      true,
		"ota_flash_read_duration_seconds":       false, // hits read from flash only via Read path on policy hit
		"ota_flash_gc_duration_seconds":         false,
		"ota_snapshot_save_duration_seconds":    false,
		"ota_snapshot_restore_duration_seconds": false,
	} {
		cnt := idx[name+"_count"]
		if len(cnt) != 1 {
			t.Errorf("%s_count: %d samples, want 1", name, len(cnt))
			continue
		}
		if active && cnt[0].Value == 0 {
			t.Errorf("%s recorded nothing; sampling should have fired", name)
		}
		if len(idx[name+"_bucket"]) == 0 {
			t.Errorf("%s has no buckets (at least +Inf expected)", name)
		}
	}

	// Breaker and flash families exist for this composition.
	if len(idx["ota_breaker_state"]) != 2 {
		t.Errorf("ota_breaker_state: %d samples, want one per shard", len(idx["ota_breaker_state"]))
	}
	if len(idx["ota_flash_waf"]) != 1 {
		t.Errorf("ota_flash_waf: %d samples, want 1", len(idx["ota_flash_waf"]))
	}

	// Trace counters track the sampled object requests.
	if rec := idx["ota_trace_recorded_total"]; len(rec) != 1 || rec[0].Value == 0 {
		t.Errorf("ota_trace_recorded_total = %+v, want nonzero", rec)
	}
}

// stepClock advances a fixed step on every Now read, so measured
// durations are deterministic and strictly positive without sleeping.
type stepClock struct {
	mu   sync.Mutex
	now  time.Time
	step time.Duration
}

func newStepClock(step time.Duration) *stepClock {
	return &stepClock{now: time.Unix(1_700_000_000, 0), step: step}
}

func (c *stepClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(c.step)
	return c.now
}

func (c *stepClock) Sleep(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// TestMetricsQuantile closes the scrape loop: the exposition's
// cumulative buckets must reproduce the server-side quantile within
// histogram resolution (the otaload recipe).
func TestMetricsQuantile(t *testing.T) {
	srv := New(newTestEngine(t, nil), Config{Clock: newStepClock(time.Microsecond), SampleEvery: 1})
	_, c := startTestServer(t, srv)
	for key := uint64(0); key < 100; key++ {
		if _, err := c.Lookup(key, 1<<10, nil); err != nil {
			t.Fatal(err)
		}
	}
	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	var les, cums []float64
	for _, s := range samples {
		if s.Name == "ota_lookup_duration_seconds_bucket" {
			le, err := strconv.ParseFloat(s.Label("le"), 64)
			if err != nil {
				le = 1e308 // +Inf
			}
			les = append(les, le)
			cums = append(cums, s.Value)
		}
	}
	if len(les) == 0 {
		t.Fatal("no lookup buckets on the page")
	}
	got := obs.BucketQuantile(les, cums, 0.99)
	want := srv.shards[0].Instruments().Lookup.Quantile(0.99) * 1e-9
	if got <= 0 || want <= 0 {
		t.Fatalf("degenerate quantiles: scraped %g, direct %g", got, want)
	}
	// Same bucketing on both sides: scraped p99 within one log-bucket
	// (25% relative error) of the direct read.
	if ratio := got / want; ratio < 0.7 || ratio > 1.4 {
		t.Errorf("scraped p99 %g vs direct %g (ratio %.2f)", got, want, ratio)
	}
}

// TestTraceEndpoint drives traced traffic and checks both encodings of
// /admin/trace agree with what was served.
func TestTraceEndpoint(t *testing.T) {
	srv := New(newTestEngine(t, nil), Config{
		Clock:       faults.NewFakeClock(),
		SampleEvery: 1, TraceSampleEvery: 1, TraceCap: 64,
	})
	ts, c := startTestServer(t, srv)

	if _, err := c.Lookup(42, 1<<10, nil); err != nil { // miss, admitted
		t.Fatal(err)
	}
	if _, err := c.Lookup(42, 1<<10, nil); err != nil { // hit
		t.Fatal(err)
	}
	if _, err := c.Offer(7, 1<<10, nil); err != nil { // offer
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/admin/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var tr TraceResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	if tr.Seen != 3 || tr.Recorded != 3 || len(tr.Events) != 3 {
		t.Fatalf("trace = seen %d recorded %d events %d, want 3/3/3", tr.Seen, tr.Recorded, len(tr.Events))
	}
	// Newest first: offer, hit, admitted miss.
	if !tr.Events[0].Offer || tr.Events[0].Key != 7 {
		t.Errorf("events[0] = %+v, want offer of key 7", tr.Events[0])
	}
	if !tr.Events[1].Hit || tr.Events[1].Key != 42 {
		t.Errorf("events[1] = %+v, want hit of key 42", tr.Events[1])
	}
	if tr.Events[2].Hit || !tr.Events[2].Admitted || !tr.Events[2].Written {
		t.Errorf("events[2] = %+v, want admitted miss", tr.Events[2])
	}

	// The binary form decodes to the same events.
	resp, err = http.Get(ts.URL + "/admin/trace?format=binary")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	events, err := obs.DecodeEvents(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Key != 7 || events[1].Key != 42 {
		t.Fatalf("binary trace decodes to %+v", events)
	}
}

func TestTraceDisabled(t *testing.T) {
	srv := New(newTestEngine(t, nil), Config{TraceCap: -1})
	ts, _ := startTestServer(t, srv)
	resp, err := http.Get(ts.URL + "/admin/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("trace disabled: status %d, want 409", resp.StatusCode)
	}
}

// TestObservabilityConcurrent hammers the measurement plane from all
// sides at once — object traffic recording into histograms and the
// trace ring, /metrics scrapes merging and reading them, /admin/trace
// draining the ring — and relies on the CI race matrix (-race at
// GOMAXPROCS 2 and 8) to catch unsynchronized access.
func TestObservabilityConcurrent(t *testing.T) {
	se := buildE2E(t, tinyTrace(t), withEngineShards(2), func(c *stack.Config) { c.FlashSegmentSize = 64 << 10 })
	srv := New(se, Config{SampleEvery: 1, TraceSampleEvery: 2, TraceCap: 32})
	ts, c := startTestServer(t, srv)

	const workers, perWorker = 4, 50
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			feat := []float64{0.2, 0, 0, 0, 0}
			for i := 0; i < perWorker; i++ {
				key := uint64(w*perWorker + i)
				if _, err := c.Lookup(key%64, 4<<10, feat); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 10; i++ {
				if _, err := c.Metrics(); err != nil {
					t.Error(err)
					return
				}
				resp, err := http.Get(ts.URL + "/admin/trace")
				if err != nil {
					t.Error(err)
					return
				}
				//lint:allow errsink read-side drain of a test scrape
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}()
	}
	wg.Wait()

	samples, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	idx := sampleIndex(samples)
	if got := idx["ota_requests_total"]; len(got) != 1 || int64(got[0].Value) != int64(workers*perWorker) {
		t.Fatalf("ota_requests_total = %+v, want %d", got, workers*perWorker)
	}
	if cnt := idx["ota_http_request_duration_seconds_count"]; len(cnt) != 1 || cnt[0].Value == 0 {
		t.Fatalf("http histogram empty after concurrent run: %+v", cnt)
	}
}

// TestSnapshotTiming checks the save/restore histograms fill through
// the attached snapshotter and RestoreSnapshot.
func TestSnapshotTiming(t *testing.T) {
	dir := t.TempDir()
	path := dir + "/snap.bin"
	eng := newTestEngine(t, nil)
	srv := New(eng, Config{Clock: faults.NewFakeClock(), SampleEvery: 1})
	srv.AttachSnapshotter(NewSnapshotter(eng, path))
	if out := srv.eng.Lookup(1, 1<<10, srv.eng.NextTick(), nil); out.Hit {
		t.Fatal("unexpected hit")
	}
	if _, err := srv.Snapshotter().WriteNow(); err != nil {
		t.Fatal(err)
	}
	if n := srv.snapSave.Snapshot().Count; n != 1 {
		t.Fatalf("snapSave count = %d, want 1", n)
	}

	eng2 := newTestEngine(t, nil)
	srv2 := New(eng2, Config{Clock: faults.NewFakeClock()})
	if _, err := srv2.RestoreSnapshot(path); err != nil {
		t.Fatal(err)
	}
	if n := srv2.snapRestore.Snapshot().Count; n != 1 {
		t.Fatalf("snapRestore count = %d, want 1", n)
	}
}
