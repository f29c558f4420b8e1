package server

import (
	"bytes"
	"math/rand"
	"net/http"
	"strings"
	"sync"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/engine"
	"otacache/internal/faults"
	"otacache/internal/features"
	"otacache/internal/flash"
	"otacache/internal/mlcore"
	"otacache/internal/trace"
)

// newShardedTestEngine assembles n hash-routed admit-all engine shards,
// each with its own thread-safe policy.
func newShardedTestEngine(t testing.TB, n int) *engine.ShardedEngine {
	t.Helper()
	shards := make([]*engine.Engine, n)
	for i := range shards {
		policy, err := cache.NewSharded(1<<20, 2, func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			t.Fatal(err)
		}
		shards[i], err = engine.New(policy, nil)
		if err != nil {
			t.Fatal(err)
		}
	}
	se, err := engine.NewShardedEngine(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	return se
}

// TestE2EShardedServerMatchesInProcess extends the wire-equivalence
// criterion to the sharded core: a 4-shard daemon replayed sequentially
// over HTTP must reproduce, counter for counter, the same trace driven
// through an identically built 4-shard engine in-process.
func TestE2EShardedServerMatchesInProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("builds two sharded classifier layers from an 8k-photo trace")
	}
	tr, err := trace.Generate(trace.DefaultConfig(7, 8000))
	if err != nil {
		t.Fatal(err)
	}
	ref := buildE2E(t, tr, withEngineShards(4))
	newTraceWalker(tr).replayRange(0, len(tr.Requests), ref)
	want := ref.Snapshot()
	if want.Requests != int64(len(tr.Requests)) || want.Hits == 0 || want.Bypassed == 0 {
		t.Fatalf("degenerate reference run: %+v", want)
	}

	srv := New(buildE2E(t, tr, withEngineShards(4)), Config{NumFeatures: len(features.PaperSelected())})
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
		t.Errorf("sharded server counters diverge from in-process run:\n  server:     %+v\n  in-process: %+v", rep.Delta, want)
	}
}

// TestShardedGoldenOneShardEquivalence pins the refactor's golden
// anchor at the layer level: a layer built with EngineShards=1 must
// replay a full classifier trace with exactly the counters of the
// pre-refactor single-engine build.
func TestShardedGoldenOneShardEquivalence(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(11, 4000))
	if err != nil {
		t.Fatal(err)
	}

	single := buildE2E(t, tr)
	wrapped, err := engine.NewShardedEngine(buildE2E(t, tr).Shards(), 7)
	if err != nil {
		t.Fatal(err)
	}

	w := newTraceWalker(tr)
	w.replayRange(0, len(tr.Requests), single, wrapped)
	sm, wm := single.Snapshot(), wrapped.Snapshot()
	if sm != wm {
		t.Fatalf("one-shard ShardedEngine diverged from single Engine:\n single: %+v\nsharded: %+v", sm, wm)
	}
	if sm.Hits == 0 || sm.Bypassed == 0 {
		t.Fatalf("degenerate replay: %+v", sm)
	}
}

// TestShardedStatsPerShard pins the per-shard breakdown a scrape
// carries: ota_engine_shards, one counter row and one occupancy row per
// shard, and aggregate counters and occupancy equal to the shard sums.
// /metrics is the only stats page; the old JSON /stats route is gone.
func TestShardedStatsPerShard(t *testing.T) {
	se := newShardedTestEngine(t, 3)
	s := New(se, Config{})
	ts, c := startTestServer(t, s)

	resp, err := http.Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET /stats = %d, want 404", resp.StatusCode)
	}

	for i := 0; i < 300; i++ {
		if _, err := c.Lookup(uint64(i%100), 1000, nil); err != nil {
			t.Fatal(err)
		}
	}
	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if n := st.Value("ota_engine_shards", -1); n != 3 || len(st.Shards) != 3 {
		t.Fatalf("ota_engine_shards=%v len(Shards)=%d, want 3/3", n, len(st.Shards))
	}
	var reqs int64
	var residents, bytes float64
	for i, m := range st.Shards {
		if m.Requests == 0 {
			t.Fatalf("shard %d saw no traffic; routing is not spreading", i)
		}
		reqs += m.Requests
		residents += st.Value("ota_shard_residents", i)
		bytes += st.Value("ota_shard_resident_bytes", i)
	}
	if reqs != st.Cumulative.Requests || st.Cumulative.Requests != 300 {
		t.Fatalf("shard requests sum to %d, aggregate %d, want 300", reqs, st.Cumulative.Requests)
	}
	if residents != st.Value("ota_residents", -1) || bytes != st.Value("ota_resident_bytes", -1) || residents != 100 {
		t.Fatalf("occupancy sums %v/%v diverge from aggregate %v/%v (want 100 residents)",
			residents, bytes, st.Value("ota_residents", -1), st.Value("ota_resident_bytes", -1))
	}
}

// TestScrapeAggregateIsShardSum checks the scrape view end to end on a
// flash-attached stack under media faults. Under live traffic every
// scrape must be self-consistent — the aggregate counters and occupancy
// equal the sums of the per-shard rows on the same page, which holds
// only if each shard is read once per scrape. At quiescence the parsed
// Cumulative and per-shard counters must equal the engines' own
// Snapshots field by field over engine.Counters, with every Flash* row
// nonzero, and the residency gauges must equal each shard policy's
// Len and Used.
func TestScrapeAggregateIsShardSum(t *testing.T) {
	const shards = 4
	se := newChaosSharded(t, shards, 32<<10)
	err := engine.AttachFlashOpts(se, engine.FlashOptions{
		SegmentSize:   4096,
		Overprovision: 1.5,
		Device: func(_, segments int) flash.Device {
			read := faults.NewInjector(faults.EveryNth(97, faults.Fault{Kind: faults.Error}), nil)
			prog := faults.NewInjector(faults.After(50, faults.FailN(1, faults.Fault{Kind: faults.Error})), nil)
			flip := faults.NewInjector(faults.EveryNth(89, faults.Fault{Kind: faults.Error}), nil)
			return faults.WrapDevice(flash.NewMemDevice(segments), read, prog, nil, flip)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	_, c := startTestServer(t, New(se, Config{}))

	// A hot set that stays resident across collections beside a cold
	// churn that keeps evicting, so the collectors relocate survivors.
	lookup := func(rng *rand.Rand) {
		key := uint64(rng.Intn(400))
		if rng.Intn(2) == 0 {
			key %= 24
		}
		se.Lookup(key, 1000, se.NextTick(), nil)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 20000; i++ {
		lookup(rng)
	}

	stop := make(chan struct{})
	done := make(chan struct{})
	quiesce := sync.OnceFunc(func() {
		close(stop)
		<-done
	})
	defer quiesce()
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(2))
		for {
			select {
			case <-stop:
				return
			default:
			}
			lookup(rng)
		}
	}()
	for scrape := 0; scrape < 50; scrape++ {
		st, err := c.Stats()
		if err != nil {
			t.Fatal(err)
		}
		var sum engine.Metrics
		var residents, bytes float64
		for i, m := range st.Shards {
			sum = sum.Add(m)
			residents += st.Value("ota_shard_residents", i)
			bytes += st.Value("ota_shard_resident_bytes", i)
		}
		if len(st.Shards) != shards || sum != st.Cumulative {
			t.Fatalf("scrape %d: %d shards, aggregate %+v != shard sum %+v", scrape, len(st.Shards), st.Cumulative, sum)
		}
		if residents != st.Value("ota_residents", -1) || bytes != st.Value("ota_resident_bytes", -1) {
			t.Fatalf("scrape %d: occupancy shard sums %v/%v != aggregate %v/%v", scrape,
				residents, bytes, st.Value("ota_residents", -1), st.Value("ota_resident_bytes", -1))
		}
	}
	quiesce()

	st, err := c.Stats()
	if err != nil {
		t.Fatal(err)
	}
	want := se.Snapshot()
	for _, ctr := range engine.Counters {
		if got, w := *ctr.Field(&st.Cumulative), *ctr.Field(&want); got != w {
			t.Errorf("Cumulative.%s = %d, Snapshot %d", ctr.Name, got, w)
		}
		if strings.HasPrefix(ctr.Name, "Flash") && *ctr.Field(&want) == 0 {
			t.Errorf("%s is zero; the workload must drive every flash row", ctr.Name)
		}
	}
	for i, sh := range se.Shards() {
		shardWant := sh.Snapshot()
		for _, ctr := range engine.Counters {
			if got, w := *ctr.Field(&st.Shards[i]), *ctr.Field(&shardWant); got != w {
				t.Errorf("shard %d %s = %d, Snapshot %d", i, ctr.Name, got, w)
			}
		}
		if got, w := st.Value("ota_shard_residents", i), float64(sh.Policy().Len()); got != w {
			t.Errorf("shard %d ota_shard_residents = %v, Policy().Len() %v", i, got, w)
		}
		if got, w := st.Value("ota_shard_resident_bytes", i), float64(sh.Policy().Used()); got != w {
			t.Errorf("shard %d ota_shard_resident_bytes = %v, Policy().Used() %v", i, got, w)
		}
	}
}

// TestShardedSwapClassifierAllShards pins the atomic hot-swap: one
// /admin/classifier upload must land the same model in every shard's
// admission system.
func TestShardedSwapClassifierAllShards(t *testing.T) {
	shards := make([]*engine.Engine, 3)
	for i := range shards {
		policy, err := cache.NewSharded(1<<20, 2, func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			t.Fatal(err)
		}
		shards[i], err = engine.New(policy, trainThresholdTree(t, 0.5, false))
		if err != nil {
			t.Fatal(err)
		}
	}
	se, err := engine.NewShardedEngine(shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	adms := Admissions(se)
	if len(adms) != 3 {
		t.Fatalf("found %d admissions, want 3", len(adms))
	}
	before := make([]mlcore.Classifier, len(adms))
	for i, adm := range adms {
		before[i] = adm.Classifier()
	}

	s := New(se, Config{NumFeatures: 5})
	_, c := startTestServer(t, s)
	inv := trainTree(t, 0.5, true)
	if err := c.SwapClassifier(inv); err != nil {
		t.Fatal(err)
	}
	oneTimey := []float64{0.9, 0, 0, 0, 0}
	for i, adm := range adms {
		if adm.Classifier() == before[i] {
			t.Fatalf("shard %d kept its old classifier after swap", i)
		}
		if adm.Classifier().Predict(oneTimey) == before[i].Predict(oneTimey) {
			t.Fatalf("shard %d classifier did not change behaviour", i)
		}
	}
}

// TestSnapshotReshardKillAndRestart is the resharding acceptance
// criterion: a snapshot written by a 4-shard daemon restores into a
// freshly built 2-shard daemon — residents and history rerouted by the
// new routing — and the restored node's tail hit rate lands within one
// percentage point of an uninterrupted 2-shard run, with no
// re-admission write burst.
func TestSnapshotReshardKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four sharded classifier layers from an 8k-photo trace")
	}
	tr, err := trace.Generate(trace.DefaultConfig(7, 8000))
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Requests) / 2

	// The node that will crash ran 4 engine shards...
	crashing := buildE2E(t, tr, withEngineShards(4))
	// ...its replacement and the uninterrupted control run 2.
	uninterrupted := buildE2E(t, tr, withEngineShards(2))
	w := newTraceWalker(tr)
	w.replayRange(0, half, crashing, uninterrupted)

	var buf bytes.Buffer
	wres, err := WriteSnapshot(&buf, crashing)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Shards != 4 || wres.Residents == 0 || wres.TableEntries == 0 {
		t.Fatalf("degenerate 4-shard snapshot: %+v", wres)
	}

	restored := buildE2E(t, tr, withEngineShards(2))
	rres, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), restored)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Shards != 4 || !rres.HasTree {
		t.Fatalf("reshard restore: %+v", rres)
	}
	if restored.Tick() != crashing.Tick() {
		t.Fatalf("restored tick %d, want %d", restored.Tick(), crashing.Tick())
	}
	// Every restored resident must live on exactly the shard the new
	// routing sends it to, or post-restore lookups would miss warm state.
	shards := restored.Shards()
	checked := 0
	for i := range tr.Photos {
		key := uint64(i)
		home := restored.ShardFor(key)
		for si, sh := range shards {
			if si != home && sh.Policy().Contains(key) {
				t.Fatalf("key %d restored onto shard %d, its owner is %d", key, si, home)
			}
		}
		if shards[home].Policy().Contains(key) {
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no residents survived the reshard restore")
	}

	cold := buildE2E(t, tr, withEngineShards(2))
	u0, r0, c0 := uninterrupted.Snapshot(), restored.Snapshot(), cold.Snapshot()
	w.replayRange(half, len(tr.Requests), uninterrupted, restored, cold)
	du := uninterrupted.Snapshot().Sub(u0)
	dr := restored.Snapshot().Sub(r0)
	dc := cold.Snapshot().Sub(c0)

	if du.Hits == 0 || du.Writes == 0 {
		t.Fatalf("degenerate uninterrupted tail: %+v", du)
	}
	if gap := dr.HitRate() - du.HitRate(); gap > 0.01 || gap < -0.01 {
		t.Errorf("resharded tail hit rate %.4f vs uninterrupted %.4f (gap %.4f, want within 0.01)",
			dr.HitRate(), du.HitRate(), gap)
	}
	if dr.Writes > du.Writes+du.Writes/10+16 {
		t.Errorf("resharded tail wrote %d objects vs uninterrupted %d: re-admission burst", dr.Writes, du.Writes)
	}
	if dc.Writes <= dr.Writes {
		t.Errorf("cold restart wrote %d <= resharded %d; contrast lost, test is vacuous", dc.Writes, dr.Writes)
	}
}
