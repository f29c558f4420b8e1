// Admission-tuning: sensitivity of the classification system's knobs.
//
// The paper fixes several design parameters: the cost-matrix v by cache
// size (Table 4), the history-table capacity M(1-h)p*0.05 (§4.4.2),
// three fixed-point iterations for M (§4.3), and daily retraining at
// 05:00 (§4.4.3). This example perturbs each knob on an LRU cache and
// prints what it buys — the ablation study behind those choices.
//
// Run with:
//
//	go run ./examples/admission-tuning
package main

import (
	"fmt"
	"log"

	"otacache"
)

func main() {
	tr, err := otacache.GenerateTrace(otacache.DefaultTraceConfig(11, 30000))
	if err != nil {
		log.Fatal(err)
	}
	runner := otacache.NewRunner(tr)
	capacity := int64(float64(tr.TotalBytes()) * 0.08)
	fmt.Printf("LRU cache, %d MB (8%% of footprint), %d requests\n\n",
		capacity>>20, len(tr.Requests))

	base := otacache.SimConfig{
		Policy:     "lru",
		CacheBytes: capacity,
		Mode:       otacache.ModeProposal,
		Seed:       11,
	}

	variants := []struct {
		name string
		mut  func(*otacache.SimConfig)
	}{
		{"paper configuration", func(*otacache.SimConfig) {}},
		{"no history table", func(c *otacache.SimConfig) { c.DisableHistoryTable = true }},
		{"cost-insensitive (v=1)", func(c *otacache.SimConfig) { c.CostV = 1 }},
		{"aggressive cost (v=5)", func(c *otacache.SimConfig) { c.CostV = 5 }},
		{"no daily retraining", func(c *otacache.SimConfig) { c.RetrainHour = -1 }},
		{"single M iteration", func(c *otacache.SimConfig) { c.MIterations = 1 }},
		{"all nine features", func(c *otacache.SimConfig) {
			c.FeatureCols = []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
		}},
	}

	fmt.Printf("%-24s %8s %9s %10s %10s %10s\n",
		"variant", "hit", "writes", "precision", "recall", "rectified")
	for _, v := range variants {
		cfg := base
		v.mut(&cfg)
		res, err := runner.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		q := res.Quality.Overall
		fmt.Printf("%-24s %7.2f%% %8.2f%% %9.2f%% %9.2f%% %10d\n",
			v.name, 100*res.FileHitRate(), 100*res.FileWriteRate(),
			100*q.Precision(), 100*q.Recall(), res.Rectified)
	}

	// And the bracketing references.
	for _, ref := range []struct {
		name string
		mode otacache.Mode
	}{
		{"original (no filter)", otacache.ModeOriginal},
		{"ideal (oracle)", otacache.ModeIdeal},
	} {
		cfg := base
		cfg.Mode = ref.mode
		res, err := runner.Run(cfg)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-24s %7.2f%% %8.2f%%\n",
			ref.name, 100*res.FileHitRate(), 100*res.FileWriteRate())
	}

	fmt.Println("\nReadings: dropping the history table costs a little hit rate at")
	fmt.Println("no write savings; v trades recall (write savings) for precision")
	fmt.Println("(hit-rate safety); retraining matters once the workload drifts.")
}
