package experiments

import (
	"strings"
	"sync"
	"testing"

	"otacache/internal/sim"
)

// tinyScale keeps the package tests fast while exercising every code
// path.
func tinyScale() Scale {
	return Scale{
		Photos:           12000,
		Seed:             7,
		NominalGBs:       []float64{4, 12, 20},
		PaperFootprintGB: 25,
		SamplesPerMinute: 60,
		Table1Rows:       3000,
	}
}

var (
	envOnce sync.Once
	envVal  *Env
	envErr  error
)

func testEnv(t *testing.T) *Env {
	envOnce.Do(func() { envVal, envErr = NewEnv(tinyScale()) })
	if envErr != nil {
		t.Fatal(envErr)
	}
	return envVal
}

func TestNewEnvValidation(t *testing.T) {
	if _, err := NewEnv(Scale{}); err == nil {
		t.Fatal("zero scale must error")
	}
	if _, err := NewEnv(Scale{Photos: 10}); err == nil {
		t.Fatal("no capacities must error")
	}
}

func TestCapacityMapping(t *testing.T) {
	e := testEnv(t)
	half := e.CapacityBytes(12.5)
	if ratio := float64(half) / float64(e.Trace.TotalBytes()); ratio < 0.49 || ratio > 0.51 {
		t.Fatalf("12.5 nominal GB should be half the footprint, got ratio %v", ratio)
	}
	if costVForNominal(11.9) != 2 || costVForNominal(12) != 3 {
		t.Fatal("cost rule on nominal GB wrong")
	}
}

func TestGridShapeAndCache(t *testing.T) {
	e := testEnv(t)
	g, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Belady) != 3 {
		t.Fatalf("belady points = %d", len(g.Belady))
	}
	for _, p := range GridPolicies {
		for _, m := range []sim.Mode{sim.ModeOriginal, sim.ModeProposal, sim.ModeIdeal} {
			if len(g.Cells[p][m]) != 3 {
				t.Fatalf("%s/%s has %d points", p, m, len(g.Cells[p][m]))
			}
			for i, r := range g.Cells[p][m] {
				if r == nil {
					t.Fatalf("%s/%s point %d missing", p, m, i)
				}
				if r.Config.Policy != p || r.Config.Mode != m {
					t.Fatalf("misrouted result at %s/%s/%d", p, m, i)
				}
			}
		}
	}
	// Cached: second call returns the same object.
	g2, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	if g2 != g {
		t.Fatal("grid not cached")
	}
}

func TestGridPaperShape(t *testing.T) {
	e := testEnv(t)
	g, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	last := len(g.NominalGBs) - 1
	for _, p := range GridPolicies {
		orig := g.Cells[p][sim.ModeOriginal]
		prop := g.Cells[p][sim.ModeProposal]
		ideal := g.Cells[p][sim.ModeIdeal]
		for i := range g.NominalGBs {
			// Ordering: proposal between original and ideal (hit rate),
			// allowing small noise at the saturated top end.
			if prop[i].FileHitRate() < orig[i].FileHitRate()-0.02 {
				t.Errorf("%s@%d: proposal hit %.4f well below original %.4f",
					p, i, prop[i].FileHitRate(), orig[i].FileHitRate())
			}
			if ideal[i].FileHitRate() < prop[i].FileHitRate()-0.02 {
				t.Errorf("%s@%d: ideal hit below proposal", p, i)
			}
			// Writes: proposal strictly below original (the headline).
			if prop[i].FileWrites >= orig[i].FileWrites {
				t.Errorf("%s@%d: proposal writes not reduced", p, i)
			}
			// Belady upper-bounds every original policy.
			if g.Belady[i].FileHitRate()+1e-9 < orig[i].FileHitRate() {
				t.Errorf("belady@%d below %s original", i, p)
			}
		}
		// Hit rate grows with capacity (non-strictly).
		if orig[last].FileHitRate() < orig[0].FileHitRate() {
			t.Errorf("%s: original hit rate not increasing with capacity", p)
		}
	}
	// Write reduction magnitude: >= 30% somewhere for every policy.
	for _, p := range GridPolicies {
		_, hi := g.WriteReduction(p)
		if hi < 0.3 {
			t.Errorf("%s: max write reduction only %.2f", p, hi)
		}
	}
}

func TestRenderFigures(t *testing.T) {
	e := testEnv(t)
	g, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range FigureMetrics() {
		out := g.RenderFigure(m)
		if !strings.Contains(out, m.Figure) || !strings.Contains(out, "[lru]") {
			t.Fatalf("render for %s malformed", m.Figure)
		}
	}
}

func TestFig2(t *testing.T) {
	e := testEnv(t)
	f, err := e.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range Fig2Policies {
		if len(f.Series[p]) != 3 {
			t.Fatalf("fig2 %s has %d points", p, len(f.Series[p]))
		}
	}
	// Belady dominates everywhere.
	for i := range f.NominalGBs {
		for _, p := range []string{"lru", "s3lru", "arc", "lirs"} {
			if f.Series["belady"][i]+1e-9 < f.Series[p][i] {
				t.Fatalf("belady below %s at point %d", p, i)
			}
		}
	}
	if !strings.Contains(f.String(), "Figure 2") {
		t.Fatal("render")
	}
}

func TestFig3(t *testing.T) {
	e := testEnv(t)
	f := e.Fig3()
	out := f.String()
	if !strings.Contains(out, "l5") {
		t.Fatal("fig3 render")
	}
	if f.Summary.TypeRequestShare[11] < 0.3 {
		t.Fatalf("l5 share %.3f too low", f.Summary.TypeRequestShare[11])
	}
}

func TestFig5(t *testing.T) {
	e := testEnv(t)
	f, err := e.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []string{"lru", "lirs"} {
		for i, q := range f.Quality[p] {
			if q.Total() == 0 {
				t.Fatalf("fig5 %s point %d empty", p, i)
			}
			if q.Precision() < 0.6 {
				t.Fatalf("fig5 %s point %d precision %.3f", p, i, q.Precision())
			}
		}
	}
	if !strings.Contains(f.String(), "lirs criteria") {
		t.Fatal("render")
	}
}

func TestTable1(t *testing.T) {
	e := testEnv(t)
	res, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 8 {
		t.Fatalf("%d classifier rows", len(res.Rows))
	}
	tree, ok := res.Row("Decision Tree")
	if !ok {
		t.Fatal("no decision tree row")
	}
	if tree.Accuracy < 0.75 {
		t.Fatalf("tree accuracy = %.3f (paper: 0.86)", tree.Accuracy)
	}
	if tree.AUC < 0.8 {
		t.Fatalf("tree AUC = %.3f (paper: 0.90)", tree.AUC)
	}
	// Tree must beat Naive Bayes on accuracy, as in the paper.
	nb, _ := res.Row("Naive Bayes")
	if tree.Accuracy <= nb.Accuracy {
		t.Fatalf("tree (%.3f) should beat naive bayes (%.3f)", tree.Accuracy, nb.Accuracy)
	}
	// Ensembles cost much more per prediction than the single tree
	// (the paper's ~30x argument for choosing the tree, §3.1.1).
	ada, _ := res.Row("AdaBoost")
	if ada.PredictNs < tree.PredictNs*3 {
		t.Fatalf("adaboost predict %.0fns vs tree %.0fns: expected much costlier ensemble",
			ada.PredictNs, tree.PredictNs)
	}
	if !strings.Contains(res.String(), "Table 1") {
		t.Fatal("render")
	}
	if _, ok := res.Row("nope"); ok {
		t.Fatal("Row must miss unknown names")
	}
}

func TestFeatureSelection(t *testing.T) {
	e := testEnv(t)
	res, err := e.FeatureSelection()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Selected) == 0 {
		t.Fatal("nothing selected")
	}
	// Recency is by far the strongest signal; it must be in the set.
	found := false
	for _, n := range res.Selected {
		if n == "recency_10min" {
			found = true
		}
	}
	if !found {
		t.Fatalf("recency not selected: %v", res.Selected)
	}
	if !strings.Contains(res.String(), "selected:") {
		t.Fatal("render")
	}
}

func TestCriteriaTable(t *testing.T) {
	e := testEnv(t)
	c := e.CriteriaTable()
	if len(c.LRU) != 3 || len(c.LIRS) != 3 {
		t.Fatal("criteria points")
	}
	for i := range c.LRU {
		if c.LIRS[i].M >= c.LRU[i].M {
			t.Fatalf("point %d: M_LIRS %d >= M_LRU %d", i, c.LIRS[i].M, c.LRU[i].M)
		}
	}
	// M grows with capacity.
	if c.LRU[2].M <= c.LRU[0].M {
		t.Fatal("M must grow with capacity")
	}
	if !strings.Contains(c.String(), "M(LIRS)") {
		t.Fatal("render")
	}
}

func TestCalibration(t *testing.T) {
	e := testEnv(t)
	c := e.Calibration()
	if c.Summary.OneTimeObjectFraction < 0.55 || c.Summary.OneTimeObjectFraction > 0.68 {
		t.Fatalf("one-time fraction %.3f", c.Summary.OneTimeObjectFraction)
	}
	if !strings.Contains(c.String(), "61.5%") {
		t.Fatal("render must cite the paper target")
	}
}

func TestAblations(t *testing.T) {
	e := testEnv(t)
	a, err := e.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != 12 {
		t.Fatalf("%d ablation rows", len(a.Rows))
	}
	byName := map[string]AblationRow{}
	for _, r := range a.Rows {
		byName[r.Variant] = r
	}
	if byName["no history table"].Rectified != 0 {
		t.Fatal("no-table variant rectified")
	}
	if byName["no retraining"].Retrains != 0 {
		t.Fatal("no-retrain variant retrained")
	}
	// Higher v must not lower precision (more conservative bypassing).
	if byName["cost v=5"].Precision+0.02 < byName["cost v=1 (insensitive)"].Precision {
		t.Fatalf("v=5 precision %.3f below v=1 %.3f",
			byName["cost v=5"].Precision, byName["cost v=1 (insensitive)"].Precision)
	}
	if !strings.Contains(a.String(), "baseline") {
		t.Fatal("render")
	}
}

func TestImprovementHelpers(t *testing.T) {
	e := testEnv(t)
	g, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	lo, hi := g.Improvement("lru", FigureMetrics()[0])
	if lo > hi {
		t.Fatalf("improvement bounds inverted: %v > %v", lo, hi)
	}
	wlo, whi := g.WriteReduction("fifo")
	if wlo > whi || whi <= 0 {
		t.Fatalf("write reduction bounds: %v %v", wlo, whi)
	}
}

func TestCSVEmitters(t *testing.T) {
	e := testEnv(t)
	g, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range FigureMetrics() {
		out := g.FigureCSV(m)
		lines := strings.Split(strings.TrimSpace(out), "\n")
		// header + 5 policies x 4 variants x 3 capacities
		if len(lines) != 1+5*4*3 {
			t.Fatalf("%s CSV has %d lines", m.Figure, len(lines))
		}
		if !strings.HasPrefix(lines[0], "figure,policy,variant,") {
			t.Fatalf("bad header: %s", lines[0])
		}
	}
	f2, err := e.Fig2()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(f2.CSV(), "\n"); n != 1+5*3 {
		t.Fatalf("fig2 CSV has %d lines", n)
	}
	f5, err := e.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(f5.CSV(), "\n"); n != 1+2*3*3 {
		t.Fatalf("fig5 CSV has %d lines", n)
	}
	t1, err := e.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(t1.CSV(), "\n"); n != 9 {
		t.Fatalf("table1 CSV has %d lines", n)
	}
	a, err := e.Ablations()
	if err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(a.CSV(), "\n"); n != 13 {
		t.Fatalf("ablation CSV has %d lines", n)
	}
}

func TestRetrainTimeline(t *testing.T) {
	e := testEnv(t)
	r, err := e.RetrainTimeline()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Retrained) == 0 || len(r.Frozen) == 0 || len(r.Online) == 0 {
		t.Fatal("empty timeline")
	}
	// Every populated day has a valid confusion.
	for d, q := range r.Retrained {
		if q.Total() > 0 && (q.Accuracy() < 0 || q.Accuracy() > 1) {
			t.Fatalf("day %d accuracy out of range", d)
		}
	}
	// The retrained model must not lose to the frozen one after warmup
	// (allowing noise).
	re := MeanAccuracyAfterDay(r.Retrained, 2)
	fr := MeanAccuracyAfterDay(r.Frozen, 2)
	if re < fr-0.05 {
		t.Fatalf("retrained post-warmup accuracy %.3f well below frozen %.3f", re, fr)
	}
	if !strings.Contains(r.String(), "retrained") {
		t.Fatal("render")
	}
}

func TestThresholdSweep(t *testing.T) {
	e := testEnv(t)
	r, err := e.ThresholdSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 6 {
		t.Fatalf("%d threshold rows", len(r.Rows))
	}
	// Monotone trends along the sweep tail (excluding the tree's own
	// rule at index 0): higher threshold -> fewer bypasses -> more
	// writes, precision non-decreasing (allowing small noise).
	for i := 2; i < len(r.Rows); i++ {
		if r.Rows[i].WriteRate+0.005 < r.Rows[i-1].WriteRate {
			t.Fatalf("write rate fell as threshold rose: %.4f -> %.4f",
				r.Rows[i-1].WriteRate, r.Rows[i].WriteRate)
		}
		if r.Rows[i].Recall > r.Rows[i-1].Recall+0.01 {
			t.Fatalf("recall rose as threshold rose")
		}
	}
	if !strings.Contains(r.String(), "threshold") {
		t.Fatal("render")
	}
}

func TestWastedWritesBounded(t *testing.T) {
	e := testEnv(t)
	g, err := e.Grid()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range GridPolicies {
		for i, r := range g.Cells[p][sim.ModeProposal] {
			if r.WastedWrites > r.FileWrites {
				t.Fatalf("%s@%d: wasted %d > writes %d", p, i, r.WastedWrites, r.FileWrites)
			}
		}
		// The oracle never wastes a write.
		for i, r := range g.Cells[p][sim.ModeIdeal] {
			if r.WastedWrites != 0 {
				t.Fatalf("%s@%d: oracle wasted %d writes", p, i, r.WastedWrites)
			}
		}
	}
}

func TestBaselines(t *testing.T) {
	e := testEnv(t)
	b, err := e.Baselines()
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []string{"original", "doorkeeper", "proposal", "ideal"} {
		if len(b.HitRate[m]) != len(b.NominalGBs) || len(b.WriteRate[m]) != len(b.NominalGBs) {
			t.Fatalf("%s series incomplete", m)
		}
	}
	for i := range b.NominalGBs {
		// The doorkeeper must beat admit-all on writes (it bypasses
		// every first appearance).
		if b.WriteRate["doorkeeper"][i] >= b.WriteRate["original"][i] {
			t.Fatalf("point %d: doorkeeper writes %.4f >= original %.4f",
				i, b.WriteRate["doorkeeper"][i], b.WriteRate["original"][i])
		}
		// The oracle bounds everything on hit rate.
		if b.HitRate["ideal"][i]+1e-9 < b.HitRate["doorkeeper"][i] {
			t.Fatalf("point %d: doorkeeper above the oracle", i)
		}
	}
	if !strings.Contains(b.String(), "doorkeeper") {
		t.Fatal("render")
	}
}
