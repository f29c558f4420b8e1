package main

import (
	"time"

	"otacache/internal/features"
	"otacache/internal/stats"
	"otacache/internal/trace"
)

// populationSeed is cmd/otacached's default -seed. The daemon under
// test bootstraps its criteria and classifier from the trace that seed
// generates, and — the paper's protocol — the clients then replay that
// same trace: trained on its first day, served all nine.
const populationSeed = 42

// stream is the generated input of one workload: the request sequence
// with its feature vectors extracted up front, so the timed loop does no
// generator work.
//
// The benchmark's -seed does not resample the photo population. Hit and
// write ratios of this heavy-tailed workload swing by several percent
// from one sampled population to the next, which would drown a 1 %
// quality regression; the seed instead salts the key space, so every
// seed sends the same access pattern under different keys — different
// policy stripes, ring positions and map buckets for every object.
type stream struct {
	tr   *trace.Trace
	next []int
	// salt is an odd multiplier derived from the seed; multiplying by it
	// permutes the 64-bit key space.
	salt uint64
	// feats holds the projected (features.PaperSelected) vector of
	// request i at feats[i*nf : (i+1)*nf].
	feats []float64
	nf    int
	// withFeatures is false for admit-all workloads: like otaload against
	// an -mode original daemon, their requests carry no features.
	withFeatures bool

	generateS, extractS float64
}

// loadStream generates the trace of the given size, extracts every
// request's feature vector, and derives the key salt from seed.
func loadStream(seed uint64, photos int, withFeatures bool) (*stream, error) {
	t0 := time.Now()
	tr, err := trace.Generate(trace.DefaultConfig(populationSeed, photos))
	if err != nil {
		return nil, err
	}
	t1 := time.Now()
	cols := features.PaperSelected()
	s := &stream{tr: tr, nf: len(cols), withFeatures: withFeatures, salt: stats.NewRNG(seed).Uint64() | 1}
	if withFeatures {
		s.feats = make([]float64, len(tr.Requests)*len(cols))
		ex := features.NewExtractor(tr)
		var full [features.NumFeatures]float64
		for i := range tr.Requests {
			ex.NextInto(i, full[:])
			for j, c := range cols {
				s.feats[i*len(cols)+j] = full[c]
			}
		}
	}
	s.next = trace.BuildNextAccess(tr)
	s.generateS = t1.Sub(t0).Seconds()
	s.extractS = time.Since(t1).Seconds()
	return s, nil
}

// passLen is the number of requests in one pass over the trace.
func (s *stream) passLen() int64 { return int64(len(s.tr.Requests)) }

// at returns request number pos of the endless stream. Pass k replays
// the trace with every key shifted by k·len(Photos) ("epoch shift"): a
// fresh population with the calibrated one-time mix, so replaying never
// turns a one-time object into a re-accessed one. The salt then permutes
// the shifted keys, which keeps epochs disjoint. idx is the request's
// index within its pass, for looking up ground truth.
func (s *stream) at(pos int64) (key uint64, size int64, feat []float64, idx int) {
	n := int64(len(s.tr.Requests))
	epoch := pos / n
	idx = int(pos - epoch*n)
	r := &s.tr.Requests[idx]
	key = (uint64(r.Photo) + uint64(epoch)*uint64(len(s.tr.Photos))) * s.salt
	size = s.tr.Photos[r.Photo].Size
	if s.withFeatures {
		feat = s.feats[idx*s.nf : (idx+1)*s.nf : (idx+1)*s.nf]
	}
	return key, size, feat, idx
}
