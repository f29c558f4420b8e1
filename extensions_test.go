package otacache

import (
	"math"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestExtensionsFacade(t *testing.T) {
	tr, err := GenerateTrace(DefaultTraceConfig(3, 6000))
	if err != nil {
		t.Fatal(err)
	}

	// Two-tier hierarchy.
	fp := float64(tr.TotalBytes())
	res, err := SimulateTiers(tr, TierConfig{
		OC:   TierLayer{Policy: "lru", CacheBytes: int64(0.05 * fp), Filter: TierClassifier},
		DC:   TierLayer{Policy: "s3lru", CacheBytes: int64(0.15 * fp), Filter: TierClassifier},
		Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.CombinedHitRate() <= res.OCHitRate() {
		t.Fatal("tier accounting broken")
	}
	if DefaultTierLatency().OCToDCUs <= 0 {
		t.Fatal("tier latency defaults")
	}

	// Endurance.
	dev := DefaultTLC(1 << 30)
	if err := dev.Validate(); err != nil {
		t.Fatal(err)
	}
	if LifetimeExtension(2, 1) != 2 {
		t.Fatal("lifetime extension")
	}

	// Sharded policy.
	sharded, err := NewShardedPolicy(1<<20, 8, func(c int64) Policy {
		p, err := NewPolicy("lru", c, nil)
		if err != nil {
			t.Fatal(err)
		}
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	sharded.Admit(1, 100, 0)
	if !sharded.Contains(1) {
		t.Fatal("sharded admit lost the key")
	}

	// Frequency baseline.
	freq, err := NewFrequencyAdmission(1024, 1)
	if err != nil {
		t.Fatal(err)
	}
	if freq.Decide(5, 0, nil).Admit {
		t.Fatal("first appearance admitted")
	}

	// Online classifier.
	online, err := NewOnlineClassifier(3, 0, -1)
	if err != nil {
		t.Fatal(err)
	}
	online.Update([]float64{1, 2, 3}, 1)
	if s := online.Score([]float64{1, 2, 3}); s < 0 || s > 1 {
		t.Fatalf("online score %v", s)
	}

	// Serving engine over the sharded policy, with the flash device
	// model underneath: admitted misses append to the log, and the
	// measured WAF feeds back into the endurance profile.
	eng, err := NewEngine(sharded, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := AttachFlashStore(eng, 1<<16, 1.2); err != nil {
		t.Fatal(err)
	}
	if err := AttachFlashStore(eng, 1<<16, 0.5); err == nil {
		t.Fatal("overprovision <= 1 must error")
	}
	if out := eng.Lookup(1, 100, eng.NextTick(), nil); !out.Hit {
		t.Fatal("engine missed the resident key")
	}
	if out := eng.Lookup(99, 100, eng.NextTick(), nil); out.Hit || !out.Written {
		t.Fatal("engine admit-all miss must write")
	}
	if m := eng.Snapshot(); m.Requests != 2 || m.Hits != 1 || m.Writes != 1 {
		t.Fatalf("engine metrics: %+v", m)
	}
	if m := eng.Snapshot(); m.FlashHostBytes != 100 || m.FlashWAF() != 1 {
		t.Fatalf("flash wear unaccounted: %+v", m)
	}
	var st FlashStats = eng.Flash().Stats()
	if _, err := dev.WithMeasuredWAF(st.WAF()); err != nil {
		t.Fatal(err)
	}

	// A standalone serving layer built from the tier configuration.
	layer, err := BuildServingLayer(tr, BuildNextAccess(tr),
		TierConfig{Seed: 3},
		TierLayer{Policy: "lru", CacheBytes: int64(0.05 * fp), Filter: TierClassifier})
	if err != nil {
		t.Fatal(err)
	}
	if layer.Engine == nil || layer.Criteria.M <= 0 {
		t.Fatalf("serving layer incomplete: %+v", layer)
	}
}

func TestObservabilityFacade(t *testing.T) {
	h := NewLatencyHistogram()
	for i := 0; i < 1000; i++ {
		h.Record(int64(i) * 1000)
	}
	var snap LatencySnapshot = h.Snapshot()
	if snap.Count != 1000 {
		t.Fatalf("histogram count %d, want 1000", snap.Count)
	}
	p99 := snap.Quantile(0.99)
	if p99 < 500_000 || p99 > 2_000_000 {
		t.Fatalf("p99 %v ns outside the recorded range", p99)
	}

	exposition := strings.NewReader(
		"# TYPE ota_requests_total counter\n" +
			"ota_requests_total 42\n" +
			"ota_lookup_duration_seconds_bucket{le=\"0.001\"} 90\n" +
			"ota_lookup_duration_seconds_bucket{le=\"+Inf\"} 100\n")
	samples, err := ParseMetricsText(exposition)
	if err != nil {
		t.Fatal(err)
	}
	var total MetricSample
	var les, cums []float64
	for _, s := range samples {
		if s.Name == "ota_requests_total" {
			total = s
		}
		if s.Name == "ota_lookup_duration_seconds_bucket" {
			le, perr := strconv.ParseFloat(s.Label("le"), 64)
			if perr != nil { // le="+Inf"
				le = math.Inf(1)
			}
			les = append(les, le)
			cums = append(cums, s.Value)
		}
	}
	if total.Value != 42 {
		t.Fatalf("parsed counter %v, want 42", total.Value)
	}
	if q := MetricsBucketQuantile(les, cums, 0.5); q <= 0 || q > 0.001 {
		t.Fatalf("median %v outside the first bucket", q)
	}
}

func TestModelAndTracePersistenceFacade(t *testing.T) {
	tr, err := GenerateTrace(DefaultTraceConfig(4, 3000))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	// Trace round trip.
	tp := filepath.Join(dir, "t.bin")
	if err := SaveTrace(tr, tp); err != nil {
		t.Fatal(err)
	}
	tr2, err := LoadTrace(tp)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr2.Requests) != len(tr.Requests) {
		t.Fatal("trace round trip lost requests")
	}

	// Train + persist a model through the facade.
	next := BuildNextAccess(tr)
	crit := SolveCriteria(tr, next, tr.TotalBytes()/10, 0.5, 3)
	labels := OneTimeLabels(next, crit)
	ds, err := BuildDataset(tr, labels, func(i int) bool { return i%2 == 0 })
	if err != nil {
		t.Fatal(err)
	}
	clf, err := TrainTree(ds.SelectFeatures(PaperFeatureColumns()), 2)
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := clf.(*DecisionTree)
	if !ok {
		t.Fatalf("TrainTree returned %T, want *DecisionTree", clf)
	}
	mp := filepath.Join(dir, "m.bin")
	if err := SaveTree(tree, mp); err != nil {
		t.Fatal(err)
	}
	got, err := LoadTree(mp)
	if err != nil {
		t.Fatal(err)
	}
	x := ds.SelectFeatures(PaperFeatureColumns()).X[0]
	if got.Score(x) != tree.Score(x) {
		t.Fatal("model round trip changed score")
	}
}
