package flash_test

import (
	"bytes"
	"testing"

	"otacache/internal/faults"
	"otacache/internal/flash"
)

// TestIndexFlashAgreement runs a seeded churn of writes, overwrites,
// invalidations, reads and scrub steps through faults.Device, whose
// reads, programs and erases fail now and then, so collection passes
// drop unreadable survivors and relocations land on blocks that retire
// under them. After every operation the index and the segments must
// agree (flash.CheckStore), and every read that succeeds must return the
// bytes last written.
func TestIndexFlashAgreement(t *testing.T) {
	const (
		segments = 32
		keys     = 160
		ops      = 8000
	)
	fail := func(seed uint64, p float64) *faults.Injector {
		return faults.NewInjector(faults.Seeded(seed, p, faults.Fault{Kind: faults.Error}), nil)
	}
	dev := faults.WrapDevice(flash.NewMemDevice(segments), fail(1, 0.004), fail(2, 0.001), fail(3, 0.005), nil)
	s, err := flash.New(flash.Config{SegmentSize: 1024, Capacity: segments * 1024, Device: dev, SpareBlocks: 12})
	if err != nil {
		t.Fatal(err)
	}
	want := make([][]byte, keys)
	rng := uint64(0xa11ce)
	for i := range ops {
		rng = rng*6364136223846793005 + 1442695040888963407
		key := (rng >> 33) % keys
		switch op := (rng >> 20) % 16; {
		case op < 9:
			size := int64(24 + (rng>>40)%120)
			var data []byte
			if op%2 == 0 {
				data = bytes.Repeat([]byte{byte(i)}, int(size))
			}
			if s.Write(key, size, data) == nil {
				want[key] = data
			}
		case op < 11:
			s.Invalidate(key)
		case op < 15:
			if data, _, err := s.ReadExtent(key); err == nil && !bytes.Equal(data, want[key]) {
				t.Fatalf("op %d: key %d read back wrong bytes", i, key)
			}
		default:
			s.ScrubStep()
		}
		flash.CheckStore(t, s)
	}
	st := s.Stats()
	if st.Relocations == 0 || st.RetiredBlocks == 0 || st.ReadErrors == 0 ||
		dev.InjectedPrograms() == 0 || dev.InjectedErases() == 0 {
		t.Fatalf("churn did not reach relocation, retirement and read failure: %+v", st)
	}
}
