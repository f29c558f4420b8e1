package trace

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"
)

// traceDigest is an FNV-64a hash over every field of every request,
// photo and owner, in slice order.
func traceDigest(t *Trace) uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, r := range t.Requests {
		put(uint64(r.Time))
		put(uint64(r.Photo))
		put(uint64(r.Terminal))
	}
	for _, p := range t.Photos {
		put(uint64(p.Owner))
		put(uint64(p.Type))
		put(uint64(p.Size))
		put(uint64(p.Upload))
	}
	for _, o := range t.Owners {
		put(uint64(o.ActiveFriends))
		put(math.Float64bits(o.AvgViews))
		put(uint64(o.NumPhotos))
	}
	put(uint64(t.Horizon))
	return h.Sum64()
}

// TestGenerateDigest pins the generator's output bit for bit. Every
// simulation, experiment and benchmark result in the repository is a
// function of these traces, so any change to them (including the order
// of requests that share a second and a photo) must be deliberate.
func TestGenerateDigest(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		photos int
		want   uint64
	}{
		{1, 3000, 0xe344d2e319a6eb04},
		{7, 20000, 0x8a354569eefcb0a8},
		{42, 60000, 0x963a7c1d12cb520a},
	} {
		got := traceDigest(MustGenerate(DefaultConfig(tc.seed, tc.photos)))
		if got != tc.want {
			t.Errorf("seed %d, %d photos: digest %#016x, want %#016x", tc.seed, tc.photos, got, tc.want)
		}
	}
}
