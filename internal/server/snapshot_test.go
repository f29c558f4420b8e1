package server

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"otacache/internal/engine"
	"otacache/internal/features"
	"otacache/internal/stack"
	"otacache/internal/trace"
)

// traceWalker drives trace requests through engines, all sharing one
// projected feature stream. The extractor must walk the
// trace from index 0, so callers pass the same walker across calls.
type traceWalker struct {
	tr   *trace.Trace
	ex   *features.Extractor
	cols []int
	full [features.NumFeatures]float64
}

func newTraceWalker(tr *trace.Trace) *traceWalker {
	return &traceWalker{tr: tr, ex: features.NewExtractor(tr), cols: features.PaperSelected()}
}

// replayRange drives requests [lo, hi) through each engine in turn.
func (w *traceWalker) replayRange(lo, hi int, srvs ...engine.Server) {
	for i := lo; i < hi; i++ {
		req := &w.tr.Requests[i]
		w.ex.NextInto(i, w.full[:])
		for _, srv := range srvs {
			proj := make([]float64, len(w.cols))
			for j, col := range w.cols {
				proj[j] = w.full[col]
			}
			srv.Lookup(uint64(req.Photo), w.tr.Photos[req.Photo].Size, srv.NextTick(), proj)
		}
	}
}

// TestSnapshotRoundTrip pins that a snapshot written mid-run restores
// the three pieces of warm state into a fresh engine: the resident set
// (count, bytes, and membership), the history table, the classifier
// tree, and the tick counter.
func TestSnapshotRoundTrip(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(11, 4000))
	if err != nil {
		t.Fatal(err)
	}
	src := buildE2E(t, tr)
	newTraceWalker(tr).replayRange(0, len(tr.Requests), src)

	var buf bytes.Buffer
	wres, err := WriteSnapshot(&buf, src)
	if err != nil {
		t.Fatal(err)
	}
	if wres.Residents == 0 || wres.TableEntries == 0 || !wres.HasTree {
		t.Fatalf("degenerate snapshot: %+v", wres)
	}
	if wres.Tick != src.Tick() {
		t.Fatalf("snapshot tick %d, engine tick %d", wres.Tick, src.Tick())
	}

	dst := buildE2E(t, tr)
	rres, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), dst)
	if err != nil {
		t.Fatal(err)
	}
	if rres.Residents != wres.Residents || rres.TableEntries != wres.TableEntries || !rres.HasTree {
		t.Fatalf("restore %+v does not match write %+v", rres, wres)
	}
	if dst.Tick() != src.Tick() {
		t.Fatalf("restored tick %d, want %d", dst.Tick(), src.Tick())
	}
	sp, dp := src.Shards()[0].Policy(), dst.Shards()[0].Policy()
	if dp.Len() != sp.Len() || dp.Used() != sp.Used() {
		t.Fatalf("restored residency len=%d used=%d, want len=%d used=%d",
			dp.Len(), dp.Used(), sp.Len(), sp.Used())
	}
	// Membership, not just counts.
	for i := range tr.Photos {
		key := uint64(i)
		if sp.Contains(key) != dp.Contains(key) {
			t.Fatalf("key %d: src resident=%v, restored resident=%v",
				key, sp.Contains(key), dp.Contains(key))
		}
	}
	// The restored tree must decide identically to the source tree.
	sadm := engine.Admission(src.Shards()[0].Filter())
	dadm := engine.Admission(dst.Shards()[0].Filter())
	walker := newTraceWalker(tr)
	for i := 0; i < 200; i++ {
		walker.ex.NextInto(i, walker.full[:])
		proj := make([]float64, len(walker.cols))
		for j, col := range walker.cols {
			proj[j] = walker.full[col]
		}
		if sadm.Classifier().Predict(proj) != dadm.Classifier().Predict(proj) {
			t.Fatalf("restored classifier diverges on request %d", i)
		}
	}
}

// TestSnapshotKillAndRestart is the acceptance criterion: replay half
// the trace, snapshot, restore into a fresh daemon-equivalent engine,
// and replay the tail on both. The restored engine's tail hit rate must
// land within one percentage point of the uninterrupted run's, and the
// restart must not cause a re-admission write burst — its tail writes
// stay at the uninterrupted run's level, far below what a cold restart
// pays.
func TestSnapshotKillAndRestart(t *testing.T) {
	if testing.Short() {
		t.Skip("builds four classifier layers from an 8k-photo trace")
	}
	tr, err := trace.Generate(trace.DefaultConfig(7, 8000))
	if err != nil {
		t.Fatal(err)
	}
	half := len(tr.Requests) / 2

	// Uninterrupted reference run.
	uninterrupted := buildE2E(t, tr)
	w := newTraceWalker(tr)
	w.replayRange(0, half, uninterrupted)

	// "Crash": snapshot the half-way state through the atomic file path,
	// then restore into a freshly built identical layer.
	path := filepath.Join(t.TempDir(), "otacached.snap")
	if _, err := SaveSnapshot(path, uninterrupted); err != nil {
		t.Fatal(err)
	}
	restored := buildE2E(t, tr)
	if _, err := LoadSnapshot(path, restored); err != nil {
		t.Fatal(err)
	}
	// A cold restart for contrast: same build, no snapshot.
	cold := buildE2E(t, tr)

	u0, r0, c0 := uninterrupted.Snapshot(), restored.Snapshot(), cold.Snapshot()
	w.replayRange(half, len(tr.Requests), uninterrupted, restored, cold)
	du := uninterrupted.Snapshot().Sub(u0)
	dr := restored.Snapshot().Sub(r0)
	dc := cold.Snapshot().Sub(c0)

	if du.Hits == 0 || du.Writes == 0 {
		t.Fatalf("degenerate uninterrupted tail: %+v", du)
	}
	if gap := dr.HitRate() - du.HitRate(); gap > 0.01 || gap < -0.01 {
		t.Errorf("restored tail hit rate %.4f vs uninterrupted %.4f (gap %.4f, want within 0.01)",
			dr.HitRate(), du.HitRate(), gap)
	}
	// No re-admission burst: the restored run's tail writes track the
	// uninterrupted run's, and stay well below the cold restart's burst.
	if dr.Writes > du.Writes+du.Writes/10+16 {
		t.Errorf("restored tail wrote %d objects vs uninterrupted %d: re-admission burst", dr.Writes, du.Writes)
	}
	if dc.Writes <= dr.Writes {
		t.Errorf("cold restart wrote %d <= restored %d; contrast lost, test is vacuous", dc.Writes, dr.Writes)
	}
}

// TestSaveSnapshotAtomic pins the write-temp-then-rename contract: a
// successful save leaves no temp file, and re-saving over an existing
// snapshot yields a readable file.
func TestSaveSnapshotAtomic(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(3, 1500))
	if err != nil {
		t.Fatal(err)
	}
	layer := buildE2E(t, tr)
	newTraceWalker(tr).replayRange(0, 600, layer)

	path := filepath.Join(t.TempDir(), "state.snap")
	for i := 0; i < 2; i++ {
		res, err := SaveSnapshot(path, layer)
		if err != nil {
			t.Fatalf("save %d: %v", i, err)
		}
		if res.FileBytes == 0 {
			t.Fatalf("save %d: zero-byte snapshot", i)
		}
		if _, err := os.Stat(path + ".tmp"); !os.IsNotExist(err) {
			t.Fatalf("save %d left temp file behind", i)
		}
	}
	fresh := buildE2E(t, tr)
	if _, err := LoadSnapshot(path, fresh); err != nil {
		t.Fatal(err)
	}
}

// TestLoadSnapshotErrors pins the failure modes a daemon must tell
// apart: a missing file is a cold start (os.ErrNotExist), while
// corruption and version skew are loud errors.
func TestLoadSnapshotErrors(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	layer := buildE2E(t, tr)

	if _, err := LoadSnapshot(filepath.Join(t.TempDir(), "absent.snap"), layer); !os.IsNotExist(err) {
		t.Fatalf("missing file: got %v, want os.ErrNotExist", err)
	}

	if _, err := ReadSnapshot(strings.NewReader("not a snapshot"), layer); err == nil || !strings.Contains(err.Error(), "magic") {
		t.Fatalf("bad magic: got %v", err)
	}

	// Future version: valid magic, unknown layout.
	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, layer); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	b[4] = 99 // little-endian version field
	if _, err := ReadSnapshot(bytes.NewReader(b), layer); err == nil || !strings.Contains(err.Error(), "version") {
		t.Fatalf("future version: got %v", err)
	}

	// Truncation mid-residents.
	b[4] = byte(snapVersion)
	if _, err := ReadSnapshot(bytes.NewReader(b[:len(b)/2]), layer); err == nil {
		t.Fatal("truncated snapshot restored without error")
	}
}

// TestSnapshotRequiresRanger pins the explicit error for policies that
// cannot enumerate residents, at one policy stripe and at four: a
// striped front ranges over its stripes, so it must refuse when they
// cannot range instead of writing a snapshot with no residents.
func TestSnapshotRequiresRanger(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(3, 1000))
	if err != nil {
		t.Fatal(err)
	}
	for _, stripes := range []int{1, 4} {
		layer := buildE2E(t, tr, func(c *stack.Config) { c.Policy, c.Mode, c.Shards = "belady", "original", stripes })
		if _, err := WriteSnapshot(&bytes.Buffer{}, layer); err == nil {
			t.Fatalf("belady policy at %d stripes snapshotted without error", stripes)
		}
	}
}

// TestHistoryTableSurvivesSnapshot pins the behavioral point of
// persisting the table: a key bypassed just before the crash still gets
// its rectification on first reaccess after restore.
func TestHistoryTableSurvivesSnapshot(t *testing.T) {
	tr, err := trace.Generate(trace.DefaultConfig(5, 2000))
	if err != nil {
		t.Fatal(err)
	}
	src := buildE2E(t, tr)
	newTraceWalker(tr).replayRange(0, len(tr.Requests), src)

	adm := engine.Admission(src.Shards()[0].Filter())
	entries := adm.Table().Entries()
	if len(entries) == 0 {
		t.Skip("no live history entries at end of trace")
	}

	var buf bytes.Buffer
	if _, err := WriteSnapshot(&buf, src); err != nil {
		t.Fatal(err)
	}
	dst := buildE2E(t, tr)
	if _, err := ReadSnapshot(bytes.NewReader(buf.Bytes()), dst); err != nil {
		t.Fatal(err)
	}

	// The restored table holds the same live records in the same FIFO
	// order, and rectifies a recently bypassed key exactly as the source
	// table would.
	dadm := engine.Admission(dst.Shards()[0].Filter())
	restored := dadm.Table().Entries()
	if len(restored) != len(entries) {
		t.Fatalf("restored %d table entries, want %d", len(restored), len(entries))
	}
	for i := range entries {
		if restored[i] != entries[i] {
			t.Fatalf("table entry %d: restored %+v, want %+v", i, restored[i], entries[i])
		}
	}
	last := entries[len(entries)-1]
	srcRect := adm.Table().Rectify(last.Key, last.Tick+1, adm.M())
	dstRect := dadm.Table().Rectify(last.Key, last.Tick+1, dadm.M())
	if srcRect != dstRect || !dstRect {
		t.Fatalf("rectify bypassed key %d: src=%v restored=%v, want both true", last.Key, srcRect, dstRect)
	}
}
