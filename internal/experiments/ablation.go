package experiments

import (
	"fmt"
	"strings"

	"otacache/internal/sim"
)

// AblationRow is one variant's outcome at a reference capacity.
type AblationRow struct {
	Variant   string
	HitRate   float64
	WriteRate float64
	Precision float64
	Accuracy  float64
	Rectified int64
	Bypassed  int64
	Retrains  int
}

// AblationResult collects the design-choice ablations DESIGN.md calls
// out: history table on/off, cost-matrix v, retraining on/off, M
// iteration count, and tree split budget.
type AblationResult struct {
	NominalGB float64
	Rows      []AblationRow
}

// Ablations runs the variant study at a mid-sweep reference capacity
// with the LRU policy.
func (e *Env) Ablations() (*AblationResult, error) {
	gb := e.Scale.NominalGBs[len(e.Scale.NominalGBs)/2]
	base := e.baseConfig(gb)
	base.Policy = "lru"
	base.Mode = sim.ModeProposal

	variants := []struct {
		name string
		mut  func(*sim.Config)
	}{
		{"baseline (paper config)", func(*sim.Config) {}},
		{"no history table", func(c *sim.Config) { c.DisableHistoryTable = true }},
		{"cost v=1 (insensitive)", func(c *sim.Config) { c.CostV = 1 }},
		{"cost v=3", func(c *sim.Config) { c.CostV = 3 }},
		{"cost v=5", func(c *sim.Config) { c.CostV = 5 }},
		{"no retraining", func(c *sim.Config) { c.RetrainHour = -1 }},
		{"M 1 iteration", func(c *sim.Config) { c.MIterations = 1 }},
		{"M 6 iterations", func(c *sim.Config) { c.MIterations = 6 }},
		{"all 9 features", func(c *sim.Config) {
			c.FeatureCols = allFeatureCols()
		}},
		{"online incremental model", func(c *sim.Config) { c.OnlineLearning = true }},
		// Criteria robustness: how sensitive is the system to a badly
		// mis-estimated hit rate h in M = C/(S(1-h)(1-p))?
		{"h underestimated (0.2)", func(c *sim.Config) { c.HitRateEstimate = 0.2 }},
		{"h overestimated (0.9)", func(c *sim.Config) { c.HitRateEstimate = 0.9 }},
	}
	cfgs := make([]sim.Config, len(variants))
	for i, v := range variants {
		cfg := base
		v.mut(&cfg)
		cfgs[i] = cfg
	}
	results, err := e.Runner.Sweep(cfgs, e.Scale.Workers)
	if err != nil {
		return nil, err
	}
	out := &AblationResult{NominalGB: gb}
	for i, v := range variants {
		r := results[i]
		out.Rows = append(out.Rows, AblationRow{
			Variant:   v.name,
			HitRate:   r.FileHitRate(),
			WriteRate: r.FileWriteRate(),
			Precision: r.Quality.Overall.Precision(),
			Accuracy:  r.Quality.Overall.Accuracy(),
			Rectified: r.Rectified,
			Bypassed:  r.Bypassed,
			Retrains:  r.Retrainings,
		})
	}
	return out, nil
}

func allFeatureCols() []int {
	cols := make([]int, 9)
	for i := range cols {
		cols[i] = i
	}
	return cols
}

// String renders the ablation table.
func (a *AblationResult) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Ablations (LRU proposal at %.0f nominal GB)\n\n", a.NominalGB)
	fmt.Fprintf(&b, "%-26s %8s %8s %9s %9s %9s %9s %8s\n",
		"variant", "hit", "writes", "precision", "accuracy", "bypassed", "rectified", "retrains")
	for _, r := range a.Rows {
		fmt.Fprintf(&b, "%-26s %7.2f%% %7.2f%% %8.2f%% %8.2f%% %9d %9d %8d\n",
			r.Variant, 100*r.HitRate, 100*r.WriteRate, 100*r.Precision, 100*r.Accuracy,
			r.Bypassed, r.Rectified, r.Retrains)
	}
	return b.String()
}
