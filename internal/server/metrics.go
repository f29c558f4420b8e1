package server

import (
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/obs"
	"otacache/internal/ssd"
)

// The /metrics page is the daemon's one stats surface, in the
// Prometheus text format. Every row of engine.Counters appears exactly
// once as an aggregate ota_<field>_total family and once per shard
// under ota_shard_<field>_total{shard="i"}; the engine's table test pins
// the table to the Metrics struct, so a counter added to Metrics cannot
// miss the page. Client.Stats reads the page back (Scrape).

// snakeCase converts a Go exported field name to the metric-name
// convention: word boundaries before an upper-case rune that follows a
// lower-case one, and before the last upper of an acronym run
// ("FlashGCBytes" -> "flash_gc_bytes").
func snakeCase(s string) string {
	var b strings.Builder
	b.Grow(len(s) + 4)
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c >= 'A' && c <= 'Z' {
			prevLower := i > 0 && s[i-1] >= 'a' && s[i-1] <= 'z'
			prevUpper := i > 0 && s[i-1] >= 'A' && s[i-1] <= 'Z'
			nextLower := i+1 < len(s) && s[i+1] >= 'a' && s[i+1] <= 'z'
			if prevLower || (prevUpper && nextLower) {
				b.WriteByte('_')
			}
			c += 'a' - 'A'
		}
		b.WriteByte(c)
	}
	return b.String()
}

// MetricName returns the aggregate family name for one engine.Metrics
// field ("Requests" -> "ota_requests_total"). Exported so the golden
// exposition test and scrapers derive names instead of hard-coding a
// parallel list that could drift.
func MetricName(field string) string { return "ota_" + snakeCase(field) + "_total" }

// ShardMetricName returns the per-shard family name for one
// engine.Metrics field ("Requests" -> "ota_shard_requests_total").
func ShardMetricName(field string) string { return "ota_shard_" + snakeCase(field) + "_total" }

// handleMetrics serves GET /metrics.
func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	tw := obs.NewTextWriter(w)
	s.writeMetricsPage(tw)
	if err := tw.Err(); err != nil {
		s.encodeErrors.Add(1)
	}
}

// snapshotShards reads every shard's counters once and returns them
// with their field-wise sum, so the aggregate a scrape publishes is
// exactly the sum of the per-shard values beside it (two separate
// reads under live traffic would disagree).
func (s *Server) snapshotShards() (total engine.Metrics, perShard []engine.Metrics) {
	perShard = make([]engine.Metrics, len(s.shards))
	for i, sh := range s.shards {
		perShard[i] = sh.Snapshot()
		total = total.Add(perShard[i])
	}
	return total, perShard
}

// writeMetricsPage renders the whole exposition.
func (s *Server) writeMetricsPage(tw *obs.TextWriter) {
	cur, perShard := s.snapshotShards()

	// Every engine.Metrics counter: the aggregate family, then the
	// per-shard breakdown it is the sum of.
	for _, c := range engine.Counters {
		name := MetricName(c.Name)
		tw.Family(name, c.Help, "counter")
		tw.Int(name, nil, *c.Field(&cur))
		shardName := ShardMetricName(c.Name)
		tw.Family(shardName, "Per-shard: "+c.Help, "counter")
		for i := range perShard {
			tw.Int(shardName, shardLabel(i), *c.Field(&perShard[i]))
		}
	}

	// Serving gauges and server-side incident counters.
	tw.Family("ota_info", "Serving composition: replacement policy and admission filter.", "gauge")
	tw.Int("ota_info", []obs.Label{
		{Name: "policy", Value: s.shards[0].Policy().Name()},
		{Name: "filter", Value: s.shards[0].Filter().Name()},
	}, 1)
	tw.Family("ota_engine_shards", "Independent engine shards the keys are routed over.", "gauge")
	tw.Int("ota_engine_shards", nil, int64(len(s.shards)))
	// Occupancy is read once per shard (under a flash shard's lock), so
	// the aggregate is the sum of the per-shard samples beside it.
	residents := make([]int64, len(s.shards))
	residentBytes := make([]int64, len(s.shards))
	var sumResidents, sumBytes int64
	for i, sh := range s.shards {
		sh.WithFlash(func(p cache.Policy, _ *flash.Store) {
			residents[i], residentBytes[i] = int64(p.Len()), p.Used()
		})
		sumResidents += residents[i]
		sumBytes += residentBytes[i]
	}
	tw.Family("ota_residents", "Objects currently resident across all shard policies.", "gauge")
	tw.Int("ota_residents", nil, sumResidents)
	tw.Family("ota_shard_residents", "Per-shard: objects currently resident in the shard policy.", "gauge")
	for i, n := range residents {
		tw.Int("ota_shard_residents", shardLabel(i), n)
	}
	tw.Family("ota_resident_bytes", "Bytes currently resident across all shard policies.", "gauge")
	tw.Int("ota_resident_bytes", nil, sumBytes)
	tw.Family("ota_shard_resident_bytes", "Per-shard: bytes currently resident in the shard policy.", "gauge")
	for i, n := range residentBytes {
		tw.Int("ota_shard_resident_bytes", shardLabel(i), n)
	}
	ready := int64(0)
	if s.Ready() {
		ready = 1
	}
	tw.Family("ota_ready", "1 when /readyz serves 200.", "gauge")
	tw.Int("ota_ready", nil, ready)
	tw.Family("ota_uptime_seconds", "Seconds since the daemon booted.", "gauge")
	tw.Sample("ota_uptime_seconds", nil, s.clock.Now().Sub(s.started).Seconds())
	tw.Family("ota_panics_recovered_total", "Handler panics absorbed by the recovery middleware.", "counter")
	tw.Int("ota_panics_recovered_total", nil, s.panics.Load())
	tw.Family("ota_encode_errors_total", "Response bodies that failed to write after the status line committed.", "counter")
	tw.Int("ota_encode_errors_total", nil, s.encodeErrors.Load())

	s.writeBreakerMetrics(tw)
	s.writeFlashMetrics(tw)
	s.writeHistogramMetrics(tw)

	if s.trace != nil {
		tw.Family("ota_trace_seen_total", "Requests offered to the decision-trace sampler.", "counter")
		tw.Int("ota_trace_seen_total", nil, int64(s.trace.Seen()))
		tw.Family("ota_trace_recorded_total", "Decision-trace events recorded into the ring.", "counter")
		tw.Int("ota_trace_recorded_total", nil, int64(s.trace.Recorded()))
	}
}

// writeBreakerMetrics renders the per-shard circuit-breaker families
// (skipped entirely when no shard runs a breaker).
func (s *Server) writeBreakerMetrics(tw *obs.TextWriter) {
	any := false
	for _, br := range s.breakers {
		if br != nil {
			any = true
			break
		}
	}
	if !any {
		return
	}
	tw.Family("ota_breaker_state", "Admission breaker state per shard: 0 closed, 1 open, 2 half-open.", "gauge")
	for i, br := range s.breakers {
		if br != nil {
			tw.Int("ota_breaker_state", shardLabel(i), int64(br.State()))
		}
	}
	tw.Family("ota_breaker_opens_total", "Breaker trips since boot, per shard.", "counter")
	for i, br := range s.breakers {
		if br != nil {
			tw.Int("ota_breaker_opens_total", shardLabel(i), br.Opens())
		}
	}
	tw.Family("ota_breaker_failures_total", "Failed primary admission decisions since boot, per shard.", "counter")
	for i, br := range s.breakers {
		if br != nil {
			tw.Int("ota_breaker_failures_total", shardLabel(i), br.Failures())
		}
	}
	// The info pseudo-metric carries the string state — the fallback
	// identity and the last primary error (escaped; errors routinely
	// contain quotes and newlines, which is exactly what the
	// FuzzMetricsEscape target hardens).
	tw.Family("ota_breaker_info", "Breaker fallback identity and most recent primary error.", "gauge")
	for i, br := range s.breakers {
		if br == nil {
			continue
		}
		labels := []obs.Label{
			{Name: "shard", Value: strconv.Itoa(i)},
			{Name: "state", Value: br.State().String()},
			{Name: "fallback", Value: br.Fallback().Name()},
		}
		if err := br.LastError(); err != nil {
			labels = append(labels, obs.Label{Name: "last_error", Value: err.Error()})
		}
		tw.Int("ota_breaker_info", labels, 1)
	}
}

// writeFlashMetrics renders the flash fleet families not already
// covered by the engine.Metrics mirror (skipped when no shard has a
// store attached): the shard devices' flash.Stats, each read under its
// shard's lock, summed, with the WAF recomputed from the summed byte
// counters — the byte-weighted mean over the devices, not a mean of
// per-device WAFs.
func (s *Server) writeFlashMetrics(tw *obs.TextWriter) {
	var agg flash.Stats
	var capacity int64
	for _, sh := range s.shards {
		var st flash.Stats
		sh.WithFlash(func(_ cache.Policy, fs *flash.Store) {
			if fs != nil {
				st = fs.Stats()
			}
		})
		if st.Segments == 0 { // no store on this shard
			continue
		}
		capacity += st.SegmentSize * int64(st.Segments)
		agg.FreeSegments += st.FreeSegments
		agg.HostBytes += st.HostBytes
		agg.GCBytes += st.GCBytes
		agg.LiveBytes += st.LiveBytes
		agg.Relocations += st.Relocations
		agg.Dropped += st.Dropped
		agg.SpareHeadroom += st.SpareHeadroom
		agg.ScrubbedSegments += st.ScrubbedSegments
		agg.Exhausted = agg.Exhausted || st.Exhausted
	}
	if capacity == 0 { // no store attached
		return
	}
	tw.Family("ota_flash_waf", "Measured device write amplification, (host + GC) / host bytes.", "gauge")
	tw.Sample("ota_flash_waf", nil, agg.WAF())
	tw.Family("ota_flash_capacity_bytes", "Flash capacity summed across shard devices.", "gauge")
	tw.Int("ota_flash_capacity_bytes", nil, capacity)
	tw.Family("ota_flash_live_bytes", "Live-byte estimate across shard devices.", "gauge")
	tw.Int("ota_flash_live_bytes", nil, agg.LiveBytes)
	tw.Family("ota_flash_free_segments", "Erased segments ready to take a log head.", "gauge")
	tw.Int("ota_flash_free_segments", nil, int64(agg.FreeSegments))
	tw.Family("ota_flash_relocations_total", "Objects relocated by the collectors.", "counter")
	tw.Int("ota_flash_relocations_total", nil, agg.Relocations)
	tw.Family("ota_flash_dropped_total", "Writes abandoned for lack of a free segment.", "counter")
	tw.Int("ota_flash_dropped_total", nil, agg.Dropped)
	tw.Family("ota_flash_spare_headroom", "Block retirements the spare pool can still absorb.", "gauge")
	tw.Int("ota_flash_spare_headroom", nil, agg.SpareHeadroom)
	tw.Family("ota_flash_scrubbed_segments_total", "Sealed segments the scrub patrol has verified.", "counter")
	tw.Int("ota_flash_scrubbed_segments_total", nil, agg.ScrubbedSegments)
	exhausted := int64(0)
	if agg.Exhausted {
		exhausted = 1
	}
	tw.Family("ota_flash_exhausted", "1 when any shard device's spare pool is spent (EOL).", "gauge")
	tw.Int("ota_flash_exhausted", nil, exhausted)
	uptime := s.clock.Now().Sub(s.started).Seconds()
	if days := flashLifetimeDays(agg, capacity, uptime); days > 0 {
		tw.Family("ota_flash_lifetime_days", "Wear-out estimate at the measured WAF and observed write rate.", "gauge")
		tw.Sample("ota_flash_lifetime_days", nil, days)
	}
}

// flashLifetimeDays turns the summed wear counters into a wear-out
// estimate: the TLC endurance profile at the summed device capacity,
// the profile's guessed WAF replaced by the measured one, at the
// host-write rate observed since boot. Zero until host writes have been
// observed (no meaningful rate yet).
func flashLifetimeDays(agg flash.Stats, capacity int64, uptimeSec float64) float64 {
	if agg.HostBytes == 0 || uptimeSec <= 0 {
		return 0
	}
	dev, err := ssd.DefaultTLC(capacity).WithMeasuredWAF(agg.WAF())
	if err != nil {
		return 0
	}
	bytesPerDay := float64(agg.HostBytes) / uptimeSec * 86400
	return dev.Lifetime(bytesPerDay).Hours() / 24
}

// writeHistogramMetrics renders the latency distributions: per-shard
// engine and flash histograms merged into one fleet view per stage,
// nanosecond buckets scaled to the seconds Prometheus conventions
// expect. Stages that have not recorded anything still emit (an empty
// histogram: just +Inf, _sum, _count at 0) so dashboards need no
// existence checks.
func (s *Server) writeHistogramMetrics(tw *obs.TextWriter) {
	lookup, classifier := obs.NewHistogram(), obs.NewHistogram()
	flashRead, flashWrite, flashGC := obs.NewHistogram(), obs.NewHistogram(), obs.NewHistogram()
	for _, sh := range s.shards {
		if ins := sh.Instruments(); ins != nil {
			lookup.Merge(ins.Lookup)
			classifier.Merge(ins.Classifier)
		}
		if fs := sh.Flash(); fs != nil {
			if o := fs.Observer(); o != nil {
				flashRead.Merge(o.Read)
				flashWrite.Merge(o.Program)
				flashGC.Merge(o.GC)
			}
		}
	}
	const scale = 1e-9 // histograms record nanoseconds
	tw.Histogram("ota_lookup_duration_seconds",
		"Engine lookup latency (sampled; policy get, admission, flash write).", nil, lookup.Snapshot(), scale)
	tw.Histogram("ota_classifier_duration_seconds",
		"Primary admission filter decision latency (every breaker-fronted decision).", nil, classifier.Snapshot(), scale)
	tw.Histogram("ota_flash_read_duration_seconds",
		"Flash extent read-and-verify latency (sampled).", nil, flashRead.Snapshot(), scale)
	tw.Histogram("ota_flash_write_duration_seconds",
		"Flash host program latency (sampled), including any collection the append triggered.", nil, flashWrite.Snapshot(), scale)
	tw.Histogram("ota_flash_gc_duration_seconds",
		"Flash greedy collection pass latency.", nil, flashGC.Snapshot(), scale)
	tw.Histogram("ota_http_request_duration_seconds",
		"Object request latency through parse and engine (sampled; the response write is not included).", nil, s.httpHist.Snapshot(), scale)
	tw.Histogram("ota_snapshot_save_duration_seconds",
		"Snapshot write latency (periodic, admin-triggered, and shutdown writes).", nil, s.snapSave.Snapshot(), scale)
	tw.Histogram("ota_snapshot_restore_duration_seconds",
		"Snapshot restore latency (boot-time warm start).", nil, s.snapRestore.Snapshot(), scale)
}

func shardLabel(i int) []obs.Label {
	return []obs.Label{{Name: "shard", Value: strconv.Itoa(i)}}
}

// reqTimer carries one object request's optional timing state: traced
// requests (sampled into the decision ring) and latency-sampled
// requests share the clock reads; everything else takes two sharded
// atomic adds and no clock at all.
type reqTimer struct {
	start  time.Time
	parsed time.Time
	traced bool
	timed  bool
}

// beginObject starts the per-request timing decision.
func (s *Server) beginObject() reqTimer {
	var t reqTimer
	if s.trace != nil && s.trace.Sample() {
		t.traced = true
	}
	if t.traced || s.httpSampler.Hit() {
		t.timed = true
		t.start = s.clock.Now()
	}
	return t
}

// afterParse marks the parse/engine stage boundary.
func (s *Server) afterParse(t *reqTimer) {
	if t.timed {
		t.parsed = s.clock.Now()
	}
}

// finishObject records the sampled timings and, for traced requests,
// the decision event. offer marks PUT /object (no policy lookup).
func (s *Server) finishObject(t reqTimer, key uint64, tick int, out engine.Outcome, offer bool) {
	if !t.timed {
		return
	}
	end := s.clock.Now()
	total := end.Sub(t.start)
	s.httpHist.Record(int64(total))
	if !t.traced {
		return
	}
	ev := obs.TraceEvent{
		Key:      key,
		Tick:     int64(tick),
		ParseNs:  int64(t.parsed.Sub(t.start)),
		EngineNs: int64(end.Sub(t.parsed)),
		TotalNs:  int64(total),
	}
	shard := s.eng.ShardFor(key)
	ev.Shard = int32(shard)
	if br := s.breakers[shard]; br != nil {
		ev.Breaker = uint8(br.State()) + 1
	}
	if s.shards[shard].Flash() != nil {
		ev.Flash = 2
		if out.Written {
			ev.Flash = 1
		}
	}
	if out.Hit {
		ev.Flags |= obs.TraceHit
	}
	if out.Decision.Admit {
		ev.Flags |= obs.TraceAdmitted
	}
	if out.Written {
		ev.Flags |= obs.TraceWritten
	}
	if out.Decision.Rectified {
		ev.Flags |= obs.TraceRectified
	}
	if out.Decision.Degraded {
		ev.Flags |= obs.TraceDegraded
	}
	if out.Decision.PredictedOneTime {
		ev.Flags |= obs.TracePredictedOneTime
	}
	if offer {
		ev.Flags |= obs.TraceOffer
	}
	s.trace.Add(ev)
}

// TraceEntry is the JSON form of one decision-trace event served by
// GET /admin/trace: the packed flag bits unpacked into named booleans
// so an operator can read the ring without the codec.
type TraceEntry struct {
	Key              uint64
	Shard            int32
	Tick             int64
	Offer            bool
	Hit              bool
	Admitted         bool
	Written          bool
	Rectified        bool
	Degraded         bool
	PredictedOneTime bool
	// Breaker is "", "closed", "open", or "half-open" ("" when the
	// shard runs no breaker).
	Breaker string `json:",omitempty"`
	// Flash is "", "written", or "skipped" ("" when no store attached).
	Flash    string `json:",omitempty"`
	ParseNs  int64
	EngineNs int64
	TotalNs  int64
}

// traceEntry unpacks one event.
func traceEntry(ev obs.TraceEvent) TraceEntry {
	e := TraceEntry{
		Key:              ev.Key,
		Shard:            ev.Shard,
		Tick:             ev.Tick,
		Offer:            ev.Flags&obs.TraceOffer != 0,
		Hit:              ev.Flags&obs.TraceHit != 0,
		Admitted:         ev.Flags&obs.TraceAdmitted != 0,
		Written:          ev.Flags&obs.TraceWritten != 0,
		Rectified:        ev.Flags&obs.TraceRectified != 0,
		Degraded:         ev.Flags&obs.TraceDegraded != 0,
		PredictedOneTime: ev.Flags&obs.TracePredictedOneTime != 0,
		ParseNs:          ev.ParseNs,
		EngineNs:         ev.EngineNs,
		TotalNs:          ev.TotalNs,
	}
	switch ev.Breaker {
	case 1:
		e.Breaker = engine.BreakerClosed.String()
	case 2:
		e.Breaker = engine.BreakerOpen.String()
	case 3:
		e.Breaker = engine.BreakerHalfOpen.String()
	}
	switch ev.Flash {
	case 1:
		e.Flash = "written"
	case 2:
		e.Flash = "skipped"
	}
	return e
}

// TraceResponse is the GET /admin/trace JSON payload.
type TraceResponse struct {
	// Capacity and SampleEvery describe the ring configuration.
	Capacity    int
	SampleEvery int
	// Seen counts requests offered to the sampler; Recorded the events
	// stored (Seen / SampleEvery, give or take shard rounding).
	Seen     uint64
	Recorded uint64
	// Events holds the buffered decisions, newest first.
	Events []TraceEntry
}

// handleTrace serves GET /admin/trace: the decision ring as JSON, or as
// the binary codec stream with ?format=binary (the compact form a
// tooling consumer decodes with obs.DecodeEvents).
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.trace == nil {
		http.Error(w, "decision tracing disabled", http.StatusConflict)
		return
	}
	events := s.trace.Events()
	if r.URL.Query().Get("format") == "binary" {
		w.Header().Set("Content-Type", "application/octet-stream")
		if _, err := w.Write(obs.EncodeEvents(events)); err != nil {
			s.encodeErrors.Add(1)
		}
		return
	}
	resp := TraceResponse{
		Capacity:    s.trace.Cap(),
		SampleEvery: s.trace.SampleEvery(),
		Seen:        s.trace.Seen(),
		Recorded:    s.trace.Recorded(),
		Events:      make([]TraceEntry, len(events)),
	}
	for i, ev := range events {
		resp.Events[i] = traceEntry(ev)
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, resp)
}

// RestoreSnapshot restores warm state from path into the served
// engine, timing the restore into the snapshot-restore histogram. It
// is LoadSnapshot with the server's measurement plane attached — the
// daemon's boot path uses it so a slow warm start is visible on
// /metrics after the fact.
func (s *Server) RestoreSnapshot(path string) (SnapshotResult, error) {
	start := s.clock.Now()
	res, err := LoadSnapshot(path, s.eng)
	if err == nil {
		s.snapRestore.Record(int64(s.clock.Now().Sub(start)))
	}
	return res, err
}

// getMetrics fetches GET /metrics and hands the body of a 200 response
// to read.
func (c *Client) getMetrics(read func(io.Reader) error) error {
	resp, err := c.do(http.MethodGet, "/metrics", nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("metrics: status %s", resp.Status)
	}
	return read(resp.Body)
}

// MetricsText fetches GET /metrics and returns the raw exposition
// page.
func (c *Client) MetricsText() (string, error) {
	var b strings.Builder
	if err := c.getMetrics(func(r io.Reader) error {
		_, err := io.Copy(&b, r)
		return err
	}); err != nil {
		return "", err
	}
	return b.String(), nil
}

// Metrics fetches and parses GET /metrics into samples.
func (c *Client) Metrics() ([]obs.Sample, error) {
	var samples []obs.Sample
	err := c.getMetrics(func(r io.Reader) (err error) {
		samples, err = obs.ParseText(r)
		return err
	})
	return samples, err
}

// Stats fetches GET /metrics and parses it into a Scrape.
func (c *Client) Stats() (*Scrape, error) {
	samples, err := c.Metrics()
	if err != nil {
		return nil, err
	}
	return newScrape(samples)
}

// Scrape is a typed view of one /metrics page. The engine counters are
// rebuilt from the engine.Counters families, so a counter added to
// engine.Metrics reaches the client with no edit here; every other
// family is read by name (Sample, Value). A window's traffic is the
// difference of two scrapes: later.Cumulative.Sub(earlier.Cumulative).
type Scrape struct {
	// Cumulative is the engine counters since boot, summed over shards.
	Cumulative engine.Metrics
	// Shards holds each engine shard's counters, indexed by shard.
	Shards []engine.Metrics
	// Samples is the whole page in page order.
	Samples []obs.Sample
}

// newScrape builds the typed view of a parsed /metrics page; a shard
// label that is not a plausible index is an error.
func newScrape(samples []obs.Sample) (*Scrape, error) {
	type row struct {
		c     engine.Counter
		shard bool
	}
	rows := make(map[string]row, 2*len(engine.Counters))
	for _, c := range engine.Counters {
		rows[MetricName(c.Name)] = row{c, false}
		rows[ShardMetricName(c.Name)] = row{c, true}
	}
	st := &Scrape{Samples: samples}
	for _, smp := range samples {
		r, ok := rows[smp.Name]
		if !ok {
			continue
		}
		m := &st.Cumulative
		if r.shard {
			i, err := strconv.Atoi(smp.Label("shard"))
			if err != nil || i < 0 || i >= len(samples) {
				return nil, fmt.Errorf("metrics: %s has bad shard label %q", smp.Name, smp.Label("shard"))
			}
			for len(st.Shards) <= i {
				st.Shards = append(st.Shards, engine.Metrics{})
			}
			m = &st.Shards[i]
		}
		*r.c.Field(m) = int64(smp.Value)
	}
	return st, nil
}

// Sample returns a sample named name: with shard < 0 the first one that
// carries no shard label, otherwise the one labelled shard="<shard>".
func (st *Scrape) Sample(name string, shard int) (obs.Sample, bool) {
	want := ""
	if shard >= 0 {
		want = strconv.Itoa(shard)
	}
	for _, smp := range st.Samples {
		if smp.Name == name && smp.Label("shard") == want {
			return smp, true
		}
	}
	return obs.Sample{}, false
}

// Value is Sample's value, 0 when the page has no such sample.
func (st *Scrape) Value(name string, shard int) float64 {
	smp, _ := st.Sample(name, shard)
	return smp.Value
}
