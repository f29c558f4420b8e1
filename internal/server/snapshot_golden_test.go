package server

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"slices"
	"testing"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/labeling"
	"otacache/internal/ml/cart"
	"otacache/internal/mlcore"
)

// goldenPath is the committed example of the current wire format. A new
// snapVersion has no file until -update writes one, so bumping the
// version alone fails TestSnapshotGolden.
func goldenPath() string {
	return fmt.Sprintf("testdata/snapshot_v%d.golden", snapVersion)
}

// goldenEngine builds the golden fixture, cold: two shards on routing
// seed 7, each an LRU over two stripes (explicit, so the bytes do not
// depend on GOMAXPROCS). Shard 0 admits everything; shard 1 runs the
// classifier admission with a history table and a one-split tree, so
// the snapshot carries both arms of both presence bytes.
func goldenEngine(tb testing.TB) *engine.ShardedEngine {
	tb.Helper()
	tree, err := cart.Train(&mlcore.Dataset{
		X: [][]float64{{0}, {0}, {1}, {1}},
		Y: []int{mlcore.Negative, mlcore.Negative, mlcore.Positive, mlcore.Positive},
	}, cart.Config{MaxSplits: 1})
	if err != nil {
		tb.Fatal(err)
	}
	shards := make([]*engine.Engine, 2)
	for i := range shards {
		pol, err := cache.NewSharded(2048, 2, func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			tb.Fatal(err)
		}
		var filter core.Filter
		if i == 1 {
			filter, err = core.NewClassifierAdmission(tree, core.NewHistoryTable(8), labeling.Criteria{M: 16})
			if err != nil {
				tb.Fatal(err)
			}
		}
		if shards[i], err = engine.New(pol, filter); err != nil {
			tb.Fatal(err)
		}
	}
	se, err := engine.NewShardedEngine(shards, 7)
	if err != nil {
		tb.Fatal(err)
	}
	return se
}

// driveGolden runs the fixture's fixed lookup loop: 24 keys of four
// sizes, visited in a stride that revisits each key. Keys 2 mod 3 are
// predicted one-time, so shard 1 bypasses them and records them in its
// history table.
func driveGolden(se *engine.ShardedEngine) {
	for i := 0; i < 64; i++ {
		key := uint64(i * 7 % 24)
		feat := []float64{float64(key % 3 / 2)}
		se.Lookup(key, 64*int64(1+key%4), se.NextTick(), feat)
	}
}

// goldenSnapshot returns the committed golden bytes.
func goldenSnapshot(tb testing.TB) []byte {
	tb.Helper()
	b, err := os.ReadFile(goldenPath())
	if err != nil {
		tb.Fatalf("%v (a new snapVersion needs its golden: go test -run TestSnapshotGolden -update)", err)
	}
	return b
}

// presenceOffsets walks a snapshot written by the golden fixture and
// returns the offset of every presence byte, two per shard section, and
// of every history-table entry's tick. It fails unless the walk ends
// exactly at the end of b.
func presenceOffsets(tb testing.TB, b []byte) (presence, ticks []int) {
	tb.Helper()
	var tree bytes.Buffer
	if _, err := engine.Admission(goldenEngine(tb).Shards()[1].Filter()).Classifier().(*cart.Tree).WriteTo(&tree); err != nil {
		tb.Fatal(err)
	}
	count := func(off int) int { return int(binary.LittleEndian.Uint64(b[off:])) }
	off := 20 // magic, version, tick, shard count
	for range binary.LittleEndian.Uint32(b[16:]) {
		off += 8 + 16*count(off)
		presence = append(presence, off)
		if b[off] == 1 {
			for i := range count(off + 1) {
				ticks = append(ticks, off+9+16*i+8)
			}
			off += 8 + 16*count(off+1)
		}
		off++
		presence = append(presence, off)
		if b[off] == 1 {
			off += tree.Len()
		}
		off++
	}
	if off != len(b) {
		tb.Fatalf("snapshot layout walk ends at byte %d of %d", off, len(b))
	}
	return presence, ticks
}

// corruptTicks returns copies of a golden snapshot whose first
// history-table entry has a tick no server could have handed out: the
// most negative one, and one a million past the header's tick.
func corruptTicks(tb testing.TB, golden []byte) map[string][]byte {
	tb.Helper()
	_, ticks := presenceOffsets(tb, golden)
	if len(ticks) == 0 {
		tb.Fatal("golden snapshot has no table entries")
	}
	out := map[string][]byte{}
	for name, tick := range map[string]int64{
		"negative table tick":        math.MinInt64,
		"table tick past the header": int64(binary.LittleEndian.Uint64(golden[8:])) + 1e6,
	} {
		b := slices.Clone(golden)
		binary.LittleEndian.PutUint64(b[ticks[0]:], uint64(tick))
		out[name] = b
	}
	return out
}

// residents lists a shard's resident keys in Range (cold-to-hot) order.
func residents(sh *engine.Engine) []snapResident {
	var out []snapResident
	sh.Policy().(cache.Ranger).Range(func(key uint64, size int64) bool {
		out = append(out, snapResident{key, size})
		return true
	})
	return out
}

// TestSnapshotGolden pins the snapshot wire format to a committed file
// per format version: the fixture's WriteSnapshot output must equal
// the golden byte for byte, reading the golden into a fresh fixture
// must restore the source's exact state, and writing that restored
// engine must give the golden back. The bytes follow the layout and
// the fixture's decisions, routing included: a layout change must bump
// snapVersion (a bump without a new golden fails the read of the
// file), while a routing or policy change at the same layout
// regenerates the golden with -update, and the file it replaces must
// still restore (TestSnapshotRingGoldenRestores).
func TestSnapshotGolden(t *testing.T) {
	src := goldenEngine(t)
	driveGolden(src)
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, src); err != nil {
		t.Fatal(err)
	}
	if *updateGolden {
		if err := os.WriteFile(goldenPath(), buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	golden := goldenSnapshot(t)
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("WriteSnapshot wrote %d bytes that differ from the %d in %s: "+
			"the wire layout or the fixture's decisions (routing, admission, eviction) moved; "+
			"a layout change must bump snapVersion and add its golden", buf.Len(), len(golden), goldenPath())
	}

	srcAdm := engine.Admission(src.Shards()[1].Filter())
	entries := srcAdm.Table().Entries()
	if len(entries) == 0 || src.Shards()[0].Policy().Len() == 0 || src.Shards()[1].Policy().Len() == 0 {
		t.Fatal("degenerate fixture: a shard or the history table is empty")
	}

	dst := goldenEngine(t)
	dstAdm := engine.Admission(dst.Shards()[1].Filter())
	bootstrap := dstAdm.Classifier()
	if _, err := ReadSnapshot(bytes.NewReader(golden), dst); err != nil {
		t.Fatal(err)
	}
	for i := range src.Shards() {
		if got, want := residents(dst.Shards()[i]), residents(src.Shards()[i]); !slices.Equal(got, want) {
			t.Errorf("shard %d residents after restore:\n got %v\nwant %v", i, got, want)
		}
	}
	if got := dstAdm.Table().Entries(); !slices.Equal(got, entries) {
		t.Errorf("table entries after restore:\n got %v\nwant %v", got, entries)
	}
	if dstAdm.Classifier() == bootstrap {
		t.Error("restore kept the bootstrap classifier instead of the snapshot's tree")
	}
	for _, x := range []float64{0, 0.25, 0.49, 0.51, 0.75, 1} {
		feat := []float64{x}
		if got, want := dstAdm.Classifier().Predict(feat), srcAdm.Classifier().Predict(feat); got != want {
			t.Errorf("restored tree predicts %d at %v, source %d", got, x, want)
		}
	}
	if dst.Tick() != src.Tick() {
		t.Errorf("restored tick %d, want %d", dst.Tick(), src.Tick())
	}

	buf.Reset()
	if _, err := WriteSnapshot(&buf, dst); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Error("writing the restored engine does not reproduce the golden")
	}
}

// ringGoldenPath is a version-2 snapshot written by the same fixture
// when engine shards were routed over a consistent-hash ring, so its
// records sit in the sections that ring chose.
const ringGoldenPath = "testdata/snapshot_v2_ring.golden"

// TestSnapshotRingGoldenRestores pins that a snapshot written under the
// ring routing restores into today's fixture, each record moved to the
// shard ShardFor names now. The reference is the file restored into one
// wide shard, which keeps every record in file order. Each fixture
// shard must then hold exactly what re-admitting its share of those
// residents, in file order, leaves in a fresh policy of its shape (its
// 1 KiB stripes evict a few), and shard 1's table exactly its share of
// the entries.
func TestSnapshotRingGoldenRestores(t *testing.T) {
	data, err := os.ReadFile(ringGoldenPath)
	if err != nil {
		t.Fatal(err)
	}
	tmpl := goldenEngine(t)
	adm, err := core.NewClassifierAdmission(engine.Admission(tmpl.Shards()[1].Filter()).Classifier(),
		core.NewHistoryTable(64), labeling.Criteria{M: 16})
	if err != nil {
		t.Fatal(err)
	}
	wide, err := engine.New(cache.NewLRU(1<<20), adm)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReadSnapshot(bytes.NewReader(data), wide); err != nil {
		t.Fatal(err)
	}
	fileResidents, fileEntries := residents(wide), adm.Table().Entries()

	dst := goldenEngine(t)
	res, err := ReadSnapshot(bytes.NewReader(data), dst)
	if err != nil {
		t.Fatal(err)
	}
	if len(fileResidents) == 0 || res.Residents != len(fileResidents) {
		t.Fatalf("restore decoded %d residents, the file holds %d", res.Residents, len(fileResidents))
	}
	restored := 0
	for i, sh := range dst.Shards() {
		ref, err := cache.NewSharded(2048, 2, func(c int64) cache.Policy { return cache.NewLRU(c) })
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range fileResidents {
			if dst.ShardFor(r.key) == i {
				ref.Admit(r.key, r.size, 0)
			}
		}
		want, err := engine.New(ref, nil)
		if err != nil {
			t.Fatal(err)
		}
		got := residents(sh)
		if !slices.Equal(got, residents(want)) {
			t.Errorf("shard %d residents after restore:\n got %v\nwant %v", i, got, residents(want))
		}
		restored += len(got)
	}
	if restored == 0 {
		t.Fatal("nothing restored")
	}

	// Only shard 1 keeps a table; entries routed to the admit-all shard
	// are dropped, as on any restore.
	var kept []core.TableEntry
	for _, e := range fileEntries {
		if dst.ShardFor(e.Key) == 1 {
			kept = append(kept, e)
		}
	}
	entries := engine.Admission(dst.Shards()[1].Filter()).Table().Entries()
	if len(kept) == 0 || !slices.Equal(entries, kept) {
		t.Errorf("table entries after restore:\n got %v\nwant %v (of %v)", entries, kept, fileEntries)
	}
	if dst.Tick() != wide.Tick() || dst.Tick() == 0 {
		t.Errorf("restored tick %d, the wide restore's %d", dst.Tick(), wide.Tick())
	}
}

// requireCold fails unless a rejected restore left the golden fixture
// exactly cold: no residents on any shard, an empty history table, the
// tick untouched. A half-warm restore would hand the daemon an eviction
// order no real run ever produced.
func requireCold(tb testing.TB, target *engine.ShardedEngine, what string) {
	tb.Helper()
	for i, sh := range target.Shards() {
		if n := sh.Policy().Len(); n != 0 {
			tb.Fatalf("%s left %d residents on shard %d", what, n, i)
		}
	}
	if n := engine.Admission(target.Shards()[1].Filter()).Table().Len(); n != 0 {
		tb.Fatalf("%s left %d table entries", what, n)
	}
	if target.Tick() != 0 {
		tb.Fatalf("%s advanced the tick to %d", what, target.Tick())
	}
}

// TestReadSnapshotTruncationLeavesCold pins the decode-fully-then-apply
// contract at every possible cut of the golden — mid-header, mid-record,
// inside the table and tree sections, one byte shy of complete: each
// must be rejected with the target exactly cold.
func TestReadSnapshotTruncationLeavesCold(t *testing.T) {
	golden := goldenSnapshot(t)
	for cut := range len(golden) {
		target := goldenEngine(t)
		if _, err := ReadSnapshot(bytes.NewReader(golden[:cut]), target); err == nil {
			t.Fatalf("cut at byte %d/%d accepted", cut, len(golden))
		}
		requireCold(t, target, fmt.Sprintf("cut at byte %d", cut))
	}
}

// TestReadSnapshotRejectsCorruption pins the corruptions a
// length-prefixed decode cannot notice by running out of bytes: a
// presence byte other than 0 or 1, a history-table tick below zero or
// past the header's, and bytes after the last shard section. Each must
// be rejected with the target exactly cold.
func TestReadSnapshotRejectsCorruption(t *testing.T) {
	golden := goldenSnapshot(t)
	cases := corruptTicks(t, golden)
	cases["trailing byte"] = append(slices.Clone(golden), 0)
	presence, _ := presenceOffsets(t, golden)
	for _, off := range presence {
		b := slices.Clone(golden)
		b[off] = 2
		cases[fmt.Sprintf("presence byte %d set to 2", off)] = b
	}
	for name, data := range cases {
		target := goldenEngine(t)
		if _, err := ReadSnapshot(bytes.NewReader(data), target); err == nil {
			t.Errorf("%s: accepted", name)
		}
		requireCold(t, target, name)
	}
}
