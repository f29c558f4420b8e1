package stack

import (
	"encoding/binary"
	"flag"
	"fmt"
	"hash"
	"hash/fnv"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/trace"
)

var update = flag.Bool("update", false, "rewrite testdata/decisions.golden from the current assembly")

// digest folds a stream of uint64s into FNV-64a.
type digest struct {
	h   hash.Hash64
	buf [8]byte
}

func (d *digest) add(vs ...uint64) {
	for _, v := range vs {
		binary.LittleEndian.PutUint64(d.buf[:], v)
		d.h.Write(d.buf[:])
	}
}

func bit(b bool, shift uint) uint64 {
	if b {
		return 1 << shift
	}
	return 0
}

// replayDigest drives the whole trace through srv from one client, in
// order, with the paper's features, and returns the digest line. The
// FNV folds the decisions: every Outcome (tick, key, Hit, Admit,
// Rectified, Degraded, Written), then the engine-owned counters, then
// each shard's residents in policy order. The device's wear (host and
// relocated bytes, erases) follows in columns of its own, so a change
// to where the store places records moves those columns and
// ssd_write_bytes_per_req_byte, never the FNV or byte_hit_rate.
func replayDigest(t *testing.T, name string, srv engine.Server, tr *trace.Trace) (string, engine.Metrics) {
	t.Helper()
	d := digest{h: fnv.New64a()}
	ex := features.NewExtractor(tr)
	cols := features.PaperSelected()
	var full [features.NumFeatures]float64
	feat := make([]float64, len(cols))
	for i := range tr.Requests {
		req := &tr.Requests[i]
		ex.NextInto(i, full[:])
		for j, c := range cols {
			feat[j] = full[c]
		}
		key, tick := uint64(req.Photo), srv.NextTick()
		o := srv.Lookup(key, tr.Photos[req.Photo].Size, tick, feat)
		d.add(uint64(tick), key, bit(o.Hit, 0)|bit(o.Decision.Admit, 1)|
			bit(o.Decision.Rectified, 2)|bit(o.Decision.Degraded, 3)|bit(o.Written, 4))
	}
	m := srv.Snapshot()
	for _, c := range engine.Counters {
		if strings.HasPrefix(c.Name, "Flash") {
			continue // device counters: wear goes in the columns after the FNV, faults must be zero
		}
		d.add(uint64(*c.Field(&m)))
	}
	if m.FlashReadErrors != 0 || m.FlashCorruptExtents != 0 || m.FlashRetiredBlocks != 0 {
		t.Fatalf("%s: media faults on a healthy device: %+v", name, m)
	}
	for _, sh := range srv.Shards() {
		r, ok := cache.AsRanger(sh.Policy())
		if !ok {
			t.Fatalf("%s: policy %s cannot list its residents", name, sh.Policy().Name())
		}
		r.Range(func(key uint64, size int64) bool {
			d.add(key, uint64(size))
			return true
		})
	}
	// ssd_write_bytes_per_req_byte as the benchmark defines it: device
	// bytes, relocations included, where a store measures them.
	ssd := m.ByteWriteRate()
	if m.FlashHostBytes > 0 {
		ssd = float64(m.FlashHostBytes+m.FlashGCBytes) / float64(m.TotalBytes)
	}
	return fmt.Sprintf("%s %016x %s %s %d %d %d", name, d.h.Sum64(),
		strconv.FormatFloat(m.ByteHitRate(), 'g', -1, 64), strconv.FormatFloat(ssd, 'g', -1, 64),
		m.FlashHostBytes, m.FlashGCBytes, m.FlashErases), m
}

// TestDecisionDigest pins what the shipped assembly decides. Each arm
// is built by Build and replayed over the quick-scale trace; its digest,
// byte_hit_rate, ssd_write_bytes_per_req_byte and device columns must
// match testdata/decisions.golden exactly. Regenerate with -update only
// for a deliberate change in decisions or in the device's placement,
// and say why; a placement change moves the device columns alone.
func TestDecisionDigest(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(42, 40000))
	if err != nil {
		t.Fatal(err)
	}
	// The arms: the paper's proposal, the same over four engine shards,
	// and admit-all over a flash store whose collector must run. The
	// stripe count is fixed: its default follows GOMAXPROCS, and the
	// stripes decide evictions and the residents' order.
	base := Defaults()
	base.Shards = 4
	proposal, sharded, flash := base, base, base
	proposal.Mode = "proposal"
	sharded.Mode, sharded.EngineShards = "proposal", 4
	flash.FlashSegmentSize = 4 << 20
	arms := []struct {
		name string
		cfg  Config
	}{{"proposal", proposal}, {"proposal-4shards", sharded}, {"original-flash", flash}}

	lines := []string{"# arm fnv64a byte_hit_rate ssd_write_bytes_per_req_byte flash_host_bytes flash_gc_bytes flash_erases"}
	for _, arm := range arms {
		st, err := Build(arm.cfg, tr)
		if err != nil {
			t.Fatalf("%s: %v", arm.name, err)
		}
		line, m := replayDigest(t, arm.name, st.Server, tr)
		if arm.cfg.FlashSegmentSize > 0 && m.FlashErases == 0 {
			t.Fatalf("%s: no erase; the collector never ran", arm.name)
		}
		if arm.cfg.Mode == "proposal" && (m.Bypassed == 0 || m.Rectified == 0) {
			t.Fatalf("%s: degenerate run, bypassed=%d rectified=%d", arm.name, m.Bypassed, m.Rectified)
		}
		lines = append(lines, line)
	}
	got := strings.Join(lines, "\n") + "\n"

	path := filepath.Join("testdata", "decisions.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("decisions moved:\n got:\n%s want:\n%s", got, want)
	}
}
