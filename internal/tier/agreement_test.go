package tier_test

import (
	"testing"

	"otacache/internal/features"
	"otacache/internal/labeling"
	"otacache/internal/sim"
	"otacache/internal/tier"
	"otacache/internal/trace"
)

// TestSimulatorAgreesWithServingLayer builds the same admission two
// ways — the simulator behind the paper's figures and the serving layer
// behind the daemon — and demands the same M and the same decisions.
// The trace is past labeling.HitRateSampleRequests, so the two only
// agree if they measure h by one rule.
func TestSimulatorAgreesWithServingLayer(t *testing.T) {
	tr := trace.MustGenerate(trace.DefaultConfig(42, 60000))
	if len(tr.Requests) <= labeling.HitRateSampleRequests {
		t.Fatalf("trace has %d requests; the test needs more than the hit-rate sample", len(tr.Requests))
	}
	capacity := tr.TotalBytes() / 10

	r := sim.NewRunner(tr)
	res, err := r.Run(sim.Config{Policy: "lru", CacheBytes: capacity, Mode: sim.ModeProposal,
		Seed: 42, RetrainHour: sim.RetrainDisabled})
	if err != nil {
		t.Fatal(err)
	}

	layer, err := tier.BuildLayer(tr, r.NextAccess(), tier.Config{SamplesPerMinute: 100},
		tier.LayerConfig{Policy: "lru", CacheBytes: capacity, Filter: tier.Classifier})
	if err != nil {
		t.Fatal(err)
	}
	ex := features.NewExtractor(tr)
	cols := features.PaperSelected()
	var feat [features.NumFeatures]float64
	for i := range tr.Requests {
		req := &tr.Requests[i]
		ex.NextInto(i, feat[:])
		layer.Engine.Lookup(uint64(req.Photo), tr.Photos[req.Photo].Size, i, tier.Project(feat[:], cols))
	}
	m := layer.Engine.Snapshot()

	if res.Criteria.M != layer.Criteria.M {
		t.Fatalf("M: simulator %d, serving layer %d", res.Criteria.M, layer.Criteria.M)
	}
	simulated := [4]int64{res.FileHits, res.FileWrites, res.Bypassed, res.ByteHits}
	served := [4]int64{m.Hits, m.Writes, m.Bypassed, m.HitBytes}
	if simulated != served {
		t.Fatalf("hits/writes/bypassed/hit bytes: simulator %v, serving layer %v", simulated, served)
	}
	t.Logf("M %d; hits %d, writes %d, bypassed %d", layer.Criteria.M, m.Hits, m.Writes, m.Bypassed)
}
