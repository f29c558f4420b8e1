package tier

import (
	"strings"
	"sync"
	"testing"

	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/trace"
)

var (
	tierOnce  sync.Once
	tierTrace *trace.Trace
)

func testTrace(t testing.TB) *trace.Trace {
	tierOnce.Do(func() {
		tierTrace = trace.MustGenerate(trace.DefaultConfig(31, 15000))
	})
	return tierTrace
}

// layers returns an OC at 3% and a DC at 12% of the footprint.
func layers(t testing.TB, filter FilterKind) Config {
	tr := testTrace(t)
	fp := float64(tr.TotalBytes())
	return Config{
		OC:   LayerConfig{Policy: "lru", CacheBytes: int64(0.03 * fp), Filter: filter},
		DC:   LayerConfig{Policy: "s3lru", CacheBytes: int64(0.12 * fp), Filter: filter},
		Seed: 31,
	}
}

func TestTwoTierAdmitAll(t *testing.T) {
	tr := testTrace(t)
	res, err := Simulate(tr, layers(t, AdmitAll))
	if err != nil {
		t.Fatal(err)
	}
	if res.Requests != len(tr.Requests) {
		t.Fatal("request accounting")
	}
	if res.OCHits == 0 || res.DCHits == 0 || res.BackendReads == 0 {
		t.Fatalf("hierarchy degenerate: oc=%d dc=%d backend=%d", res.OCHits, res.DCHits, res.BackendReads)
	}
	// Conservation: every request is served exactly once.
	if res.OCHits+res.DCHits+res.BackendReads != int64(res.Requests) {
		t.Fatal("hit/miss accounting does not conserve requests")
	}
	// The DC (bigger) must have a higher standalone hit share than the
	// OC absorbs alone, and combined beats OC alone.
	if res.CombinedHitRate() <= res.OCHitRate() {
		t.Fatal("combined hit rate must exceed the OC's")
	}
	if res.OCBypassed != 0 || res.DCBypassed != 0 {
		t.Fatal("admit-all must not bypass")
	}
}

func TestTwoTierClassifierCutsWrites(t *testing.T) {
	tr := testTrace(t)
	plain, err := Simulate(tr, layers(t, AdmitAll))
	if err != nil {
		t.Fatal(err)
	}
	filtered, err := Simulate(tr, layers(t, Classifier))
	if err != nil {
		t.Fatal(err)
	}
	if filtered.OCWrites >= plain.OCWrites {
		t.Fatalf("OC writes not reduced: %d vs %d", filtered.OCWrites, plain.OCWrites)
	}
	if filtered.DCWrites >= plain.DCWrites {
		t.Fatalf("DC writes not reduced: %d vs %d", filtered.DCWrites, plain.DCWrites)
	}
	if filtered.CombinedHitRate() < plain.CombinedHitRate()-0.02 {
		t.Fatalf("combined hit rate collapsed: %.4f vs %.4f",
			filtered.CombinedHitRate(), plain.CombinedHitRate())
	}
	if filtered.OCBypassed == 0 || filtered.DCBypassed == 0 {
		t.Fatal("classifier never bypassed")
	}
	// Per-layer criteria: the smaller OC must have the smaller M.
	if filtered.OCCriteria.M >= filtered.DCCriteria.M {
		t.Fatalf("M_OC (%d) should be below M_DC (%d)", filtered.OCCriteria.M, filtered.DCCriteria.M)
	}
}

func TestTwoTierOracleBrackets(t *testing.T) {
	tr := testTrace(t)
	clf, err := Simulate(tr, layers(t, Classifier))
	if err != nil {
		t.Fatal(err)
	}
	oracle, err := Simulate(tr, layers(t, Oracle))
	if err != nil {
		t.Fatal(err)
	}
	if oracle.CombinedHitRate()+0.02 < clf.CombinedHitRate() {
		t.Fatalf("oracle combined %.4f well below classifier %.4f",
			oracle.CombinedHitRate(), clf.CombinedHitRate())
	}
	if oracle.OCWrites > clf.OCWrites {
		t.Fatal("oracle should write no more than the classifier at the OC")
	}
}

func TestTwoTierLatencyOrdering(t *testing.T) {
	tr := testTrace(t)
	plain, _ := Simulate(tr, layers(t, AdmitAll))
	clf, _ := Simulate(tr, layers(t, Classifier))
	// Better cache utilization => lower mean latency despite classify
	// overhead.
	if clf.MeanLatencyUs >= plain.MeanLatencyUs {
		t.Fatalf("classifier latency %.1f >= plain %.1f", clf.MeanLatencyUs, plain.MeanLatencyUs)
	}
	if plain.MeanLatencyUs <= 0 {
		t.Fatal("latency must be positive")
	}
}

func TestTwoTierErrors(t *testing.T) {
	tr := testTrace(t)
	bad := layers(t, AdmitAll)
	bad.OC.Policy = "nope"
	if _, err := Simulate(tr, bad); err == nil {
		t.Fatal("unknown OC policy must error")
	}
	bad2 := layers(t, AdmitAll)
	bad2.DC.CacheBytes = 0
	if _, err := Simulate(tr, bad2); err == nil {
		t.Fatal("zero DC capacity must error")
	}
}

func TestFilterKindString(t *testing.T) {
	if AdmitAll.String() != "admit-all" || Classifier.String() != "classifier" || Oracle.String() != "oracle" {
		t.Fatal("names")
	}
}

func TestDefaultLatencyApplied(t *testing.T) {
	tr := testTrace(t)
	cfg := layers(t, AdmitAll)
	// Zero latency struct must be replaced by defaults, giving a mean
	// bounded below by the pure-OC-hit cost.
	res, err := Simulate(tr, cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := DefaultLatency()
	if res.MeanLatencyUs < d.QueryUs+d.SSDReadUs {
		t.Fatalf("latency %.2f below the OC hit floor", res.MeanLatencyUs)
	}
}

func TestTwoTierByteAccounting(t *testing.T) {
	tr := testTrace(t)
	res, err := Simulate(tr, layers(t, AdmitAll))
	if err != nil {
		t.Fatal(err)
	}
	if res.OCByteHits <= 0 || res.DCByteHits <= 0 {
		t.Fatal("byte hits not recorded")
	}
	if res.OCByteHits+res.DCByteHits > res.TotalBytes {
		t.Fatal("byte hits exceed requested bytes")
	}
	bhr := res.CombinedByteHitRate()
	if bhr <= 0 || bhr >= 1 {
		t.Fatalf("combined byte hit rate %v out of range", bhr)
	}
	// File and byte rates track each other on this size-homogeneous-ish
	// workload (the paper makes the same observation in Figure 7).
	if diff := res.CombinedHitRate() - bhr; diff < -0.15 || diff > 0.15 {
		t.Fatalf("file (%.3f) and byte (%.3f) hit rates diverge", res.CombinedHitRate(), bhr)
	}
}

// replay drives the whole trace through one engine request by request,
// with the classifier's projected features, and returns its counters.
func replay(tr *trace.Trace, eng *engine.Engine) engine.Metrics {
	ex := features.NewExtractor(tr)
	cols := features.PaperSelected()
	var feat [features.NumFeatures]float64
	for i := range tr.Requests {
		req := &tr.Requests[i]
		ex.NextInto(i, feat[:])
		eng.Lookup(uint64(req.Photo), tr.Photos[req.Photo].Size, i, Project(feat[:], cols))
	}
	return eng.Snapshot()
}

// TestBuildLayerSamplesDefault proves Config.SamplesPerMinute's
// documented default reaches a direct BuildLayer call: a zero Config
// bootstraps on the paper's 100 records per minute and decides exactly
// as an explicit 100.
func TestBuildLayerSamplesDefault(t *testing.T) {
	tr := testTrace(t)
	next := trace.BuildNextAccess(tr)
	lc := LayerConfig{Policy: "lru", CacheBytes: tr.TotalBytes() / 10, Filter: Classifier}
	var got [2]engine.Metrics
	for i, cfg := range []Config{{}, {SamplesPerMinute: 100}} {
		l, err := BuildLayer(tr, next, cfg, lc)
		if err != nil {
			t.Fatal(err)
		}
		got[i] = replay(tr, l.Engine)
	}
	if got[0] != got[1] {
		t.Fatalf("SamplesPerMinute 0 decides unlike 100:\n   0: %+v\n 100: %+v", got[0], got[1])
	}
}

// TestBootstrapRefusesDegenerateFirstDay proves a classifier layer
// whose first day holds fewer than 10 samples fails to build instead of
// serving a tree trained on nothing.
func TestBootstrapRefusesDegenerateFirstDay(t *testing.T) {
	src := testTrace(t)
	tr := *src
	tr.Requests = append([]trace.Request(nil), src.Requests...)
	for i := 5; i < len(tr.Requests); i++ {
		tr.Requests[i].Time += 86400 // leave five requests on day 0
	}
	tr.Horizon += 86400
	_, err := BuildLayer(&tr, trace.BuildNextAccess(&tr), Config{},
		LayerConfig{Policy: "lru", CacheBytes: tr.TotalBytes() / 10, Filter: Classifier})
	if err == nil || !strings.Contains(err.Error(), "bootstrap samples") {
		t.Fatalf("degenerate first day built a layer (err %v)", err)
	}
}
