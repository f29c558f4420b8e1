package server

import (
	"testing"

	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/stack"
	"otacache/internal/trace"
)

// buildE2E assembles the daemon's proposal-mode stack through
// stack.Build, at 10% of the trace footprint over four policy stripes,
// after applying edits to the config. Each call builds an independent
// stack: the two sides of an equivalence test must not share a history
// table or classifier.
func buildE2E(t testing.TB, tr *trace.Trace, edits ...func(*stack.Config)) engine.Server {
	t.Helper()
	cfg := stack.Defaults()
	cfg.Mode, cfg.Seed, cfg.Frac, cfg.Shards = "proposal", 7, 0.10, 4
	for _, edit := range edits {
		edit(&cfg)
	}
	st, err := stack.Build(cfg, tr)
	if err != nil {
		t.Fatal(err)
	}
	return st.Server
}

// withEngineShards is the buildE2E edit for n engine shards.
func withEngineShards(n int) func(*stack.Config) {
	return func(c *stack.Config) { c.EngineShards = n }
}

// TestE2EServerMatchesInProcess pins the acceptance criterion: replaying
// a generated trace through the wire path (client -> HTTP -> server ->
// engine) must reproduce the hit/write counters of the same trace run
// in-process through an identically-built Engine. With a sequential
// replay the server's NextTick sequence is the in-process tick sequence,
// every stage downstream of HTTP is deterministic, and the counters are
// not merely within 1% — they are equal.
func TestE2EServerMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two classifier layers from an 8k-photo trace")
	}
	tr, err := trace.Generate(trace.DefaultConfig(7, 8000))
	if err != nil {
		t.Fatal(err)
	}
	// In-process reference: sequential Lookup over the whole trace.
	ref := buildE2E(t, tr)
	newTraceWalker(tr).replayRange(0, len(tr.Requests), ref)
	want := ref.Snapshot()
	if want.Requests != int64(len(tr.Requests)) || want.Hits == 0 || want.Bypassed == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}

	// Wire path: an identical layer served over loopback HTTP, replayed
	// by the otaload client machinery with one worker so the request
	// order (and hence the tick sequence) matches the trace.
	srv := New(buildE2E(t, tr), Config{NumFeatures: len(features.PaperSelected())})
	hs := serveTest(t, srv)

	c := NewClient(hs.URL, 1)
	rep, err := c.Replay(tr, ReplayOptions{Workers: 1, Features: true})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Errors != 0 {
		t.Fatalf("%d of %d requests failed", rep.Errors, rep.Requests)
	}
	if rep.Delta != want {
		t.Errorf("server counters diverge from in-process run:\n  server:     %+v\n  in-process: %+v", rep.Delta, want)
	}
	if rep.Hits != want.Hits {
		t.Errorf("client-observed hits = %d, in-process hits = %d", rep.Hits, want.Hits)
	}
}
