package engine

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"otacache/internal/flash"
)

// distinctMetrics fills every field of a Metrics with a distinct
// nonzero value derived from its index and a salt, via reflection, so
// the test keeps covering fields added after it was written.
func distinctMetrics(t *testing.T, salt int64) Metrics {
	t.Helper()
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		if f.Kind() != reflect.Int64 {
			t.Fatalf("Metrics.%s is %s; this test assumes int64 counters — extend it",
				v.Type().Field(i).Name, f.Kind())
		}
		f.SetInt(salt * int64(i+1))
	}
	return m
}

// TestCountersMatchMetrics pins the table to the struct: one row per
// Metrics field in declaration order, each row named for its field and
// addressing it, with help text that reads like a sentence (non-empty,
// terminated). Sub, Add, Snapshot and /metrics trust this table.
func TestCountersMatchMetrics(t *testing.T) {
	var m Metrics
	v := reflect.ValueOf(&m).Elem()
	if len(Counters) != v.NumField() {
		t.Fatalf("Counters has %d rows, Metrics has %d fields", len(Counters), v.NumField())
	}
	for i, c := range Counters {
		name := v.Type().Field(i).Name
		if c.Name != name {
			t.Errorf("Counters[%d].Name = %q, want %q", i, c.Name, name)
		}
		if reflect.ValueOf(c.Field(&m)).Pointer() != v.Field(i).Addr().Pointer() {
			t.Errorf("Counters[%d] (%s) accessor does not address Metrics.%s", i, c.Name, name)
		}
		if strings.TrimSpace(c.Help) == "" {
			t.Errorf("Counters[%d] (%s) has blank help", i, c.Name)
		} else if !strings.HasSuffix(c.Help, ".") {
			t.Errorf("Counters[%d] (%s) help %q does not end in a period", i, c.Name, c.Help)
		}
	}
}

// TestMetricsSubCoversEveryField checks Sub subtracts every counter, or
// interval metrics silently freeze for the forgotten field.
func TestMetricsSubCoversEveryField(t *testing.T) {
	cur := distinctMetrics(t, 1000)
	prev := distinctMetrics(t, 7)
	got := reflect.ValueOf(cur.Sub(prev))
	typ := got.Type()
	for i := 0; i < got.NumField(); i++ {
		want := 1000*int64(i+1) - 7*int64(i+1)
		if g := got.Field(i).Int(); g != want {
			t.Errorf("Sub dropped or miscomputed field %s: got %d, want %d",
				typ.Field(i).Name, g, want)
		}
	}
}

// TestMetricsAddCoversEveryField is Sub's mirror for the sharded
// aggregation path: Add must sum every counter, or ShardedEngine's
// Snapshot silently drops the forgotten field from every shard.
func TestMetricsAddCoversEveryField(t *testing.T) {
	a := distinctMetrics(t, 1000)
	b := distinctMetrics(t, 7)
	got := reflect.ValueOf(a.Add(b))
	typ := got.Type()
	for i := 0; i < got.NumField(); i++ {
		want := 1007 * int64(i+1)
		if g := got.Field(i).Int(); g != want {
			t.Errorf("Add dropped or miscomputed field %s: got %d, want %d",
				typ.Field(i).Name, g, want)
		}
	}
}

// faultCountdownDev wraps a device with countdown fault knobs so the
// reflection tests can drive every flash counter nonzero: the next
// failReads reads error, the next corruptReads reads return flipped
// bytes (silent corruption for the checksum layer to catch), the next
// failPrograms programs error (each one retires a block).
type faultCountdownDev struct {
	inner        flash.Device
	failReads    int
	corruptReads int
	failPrograms int
}

func (d *faultCountdownDev) Read(seg int, off int64, p []byte) error {
	if d.failReads > 0 {
		d.failReads--
		return errors.New("test: injected uncorrectable read")
	}
	if err := d.inner.Read(seg, off, p); err != nil {
		return err
	}
	if d.corruptReads > 0 && len(p) > 0 {
		d.corruptReads--
		p[0] ^= 0xFF
	}
	return nil
}

func (d *faultCountdownDev) Program(seg int, off int64, p []byte) error {
	if d.failPrograms > 0 {
		d.failPrograms--
		return errors.New("test: injected program failure")
	}
	return d.inner.Program(seg, off, p)
}

func (d *faultCountdownDev) Erase(seg int) error { return d.inner.Erase(seg) }

// faultChurnedStore builds a store whose six mirrored counters (host,
// GC, erase wear; read-error, corrupt-extent, retired-block faults) are
// all nonzero: overwrite churn for the wear counters, then exactly
// corrupt injected corruptions, reads injected uncorrectable reads, and
// retires injected program failures. Each injected fault charges its
// counter exactly once, so the final values are corrupt, reads, and
// retires regardless of whether a direct read or a GC relocation
// consumed the fault.
func faultChurnedStore(t *testing.T, seed uint64, rounds, corrupt, reads, retires int) *flash.Store {
	t.Helper()
	dev := &faultCountdownDev{inner: flash.NewMemDevice(64)}
	fs, err := flash.New(flash.Config{SegmentSize: 128, Capacity: 8192, Device: dev, SpareBlocks: 40})
	if err != nil {
		t.Fatal(err)
	}
	rng := seed
	for round := 0; round < rounds; round++ {
		rng = rng*6364136223846793005 + 1442695040888963407
		// Small objects share segments, so collections find live
		// survivors to relocate (GCBytes must end nonzero).
		fs.Write((rng>>33)%150, 30, nil)
	}
	for i := 0; i < corrupt; i++ {
		key := uint64(100 + i)
		if err := fs.Write(key, 100, nil); err != nil {
			t.Fatalf("corrupt-phase write %d: %v", i, err)
		}
		dev.corruptReads = 1
		fs.ReadExtent(key)
		if dev.corruptReads != 0 {
			t.Fatalf("corrupt-phase read %d did not touch the device", i)
		}
	}
	for i := 0; i < reads; i++ {
		key := uint64(200 + i)
		if err := fs.Write(key, 100, nil); err != nil {
			t.Fatalf("read-fail-phase write %d: %v", i, err)
		}
		dev.failReads = 1
		fs.ReadExtent(key)
		dev.failReads = 0
	}
	dev.failPrograms = retires
	if err := fs.Write(300, 100, nil); err != nil {
		t.Fatalf("retire-phase write: %v", err)
	}
	st := fs.Stats()
	if st.HostBytes == 0 || st.GCBytes == 0 || st.Erases == 0 {
		t.Fatalf("churn left a wear counter zero: %+v", st)
	}
	if st.CorruptExtents != int64(corrupt) || st.ReadErrors != int64(reads) || st.RetiredBlocks != int64(retires) {
		t.Fatalf("fault counters off: corrupt %d (want %d), reads %d (want %d), retired %d (want %d)",
			st.CorruptExtents, corrupt, st.ReadErrors, reads, st.RetiredBlocks, retires)
	}
	return fs
}

// TestEngineSnapshotCoversEveryField loads counters through the
// engine's atomics and checks Snapshot surfaces each one: a counter
// added to Metrics but not to Snapshot would read zero forever. Each
// index constant stores its field's position, so a constant out of
// step with the Counters rows lands on the wrong field.
func TestEngineSnapshotCoversEveryField(t *testing.T) {
	var e Engine
	e.c[cRequests].Store(1)
	e.c[cHits].Store(2)
	e.c[cHitBytes].Store(3)
	e.c[cMisses].Store(4)
	e.c[cWrites].Store(5)
	e.c[cWriteBytes].Store(6)
	e.c[cBypassed].Store(7)
	e.c[cRectified].Store(8)
	e.c[cDegraded].Store(9)
	e.c[cTotalBytes].Store(10)
	// The Flash* fields read through the attached store, not an atomic:
	// churn a small store (plus injected media faults) until all six
	// mirrored counters hold distinct nonzero values (the sequence is
	// deterministic).
	fs := faultChurnedStore(t, 1, 1500, 12, 11, 13)
	e.SetFlash(fs)
	snap := e.Snapshot()
	v := reflect.ValueOf(snap)
	typ := v.Type()
	seen := make(map[int64]string, v.NumField())
	for i := 0; i < v.NumField(); i++ {
		g := v.Field(i).Int()
		if i < numEngineCounters && g != int64(i+1) {
			t.Errorf("Snapshot.%s = %d, want %d; its index constant is out of step with Counters", typ.Field(i).Name, g, i+1)
		}
		if g == 0 {
			t.Errorf("Snapshot left field %s at zero; the live counter is never read", typ.Field(i).Name)
		}
		if prev, dup := seen[g]; dup {
			t.Errorf("fields %s and %s both read %d; a counter is wired to the wrong field", prev, typ.Field(i).Name, g)
		}
		seen[g] = typ.Field(i).Name
	}
}
