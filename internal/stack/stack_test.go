package stack

import (
	"testing"

	"otacache/internal/cache"
	"otacache/internal/trace"
)

// TestBuildLocksEveryPolicy pins that the daemon's assembly serves
// concurrent handlers a locked policy at every stripe count: an engine
// without a flash store takes no lock of its own, so at -shards 1 a
// bare policy would race.
func TestBuildLocksEveryPolicy(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(1, 200))
	if err != nil {
		t.Fatal(err)
	}
	for _, engineShards := range []int{1, 2} {
		cfg := Defaults()
		cfg.Shards, cfg.EngineShards = 1, engineShards
		st, err := Build(cfg, tr)
		if err != nil {
			t.Fatal(err)
		}
		for i, sh := range st.Server.Shards() {
			if _, ok := sh.Policy().(*cache.Sharded); !ok {
				t.Errorf("engine shards %d: shard %d serves unlocked policy %s", engineShards, i, sh.Policy().Name())
			}
		}
	}
}
