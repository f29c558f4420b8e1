package trace

import (
	"cmp"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

	"otacache/internal/stats"
)

// Generate synthesizes a trace from the configuration. It is
// deterministic in cfg.Seed.
func Generate(cfg Config) (*Trace, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	g := &generator{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	return g.run(), nil
}

// MustGenerate is Generate for tests and examples with known-good
// configurations; it panics on configuration errors.
func MustGenerate(cfg Config) *Trace {
	t, err := Generate(cfg)
	if err != nil {
		panic(err)
	}
	return t
}

type generator struct {
	cfg Config
	rng *stats.RNG

	horizon int64

	ownerActivity []float64 // latent activity per owner
	latent        []float64 // latent popularity per photo
	counts        []int     // realized access count per photo
}

func (g *generator) run() *Trace {
	cfg := g.cfg
	g.horizon = int64(cfg.Days) * 86400

	t := &Trace{Horizon: g.horizon}
	g.makeOwners(t)
	g.makePhotos(t)
	g.assignCounts(t)
	g.emitRequests(t)
	g.finalizeOwnerFeatures(t)
	return t
}

// makeOwners draws the owner population with a lognormal latent activity
// level. ActiveFriends is observable and correlated with activity.
func (g *generator) makeOwners(t *Trace) {
	n := g.cfg.NumOwners
	t.Owners = make([]Owner, n)
	g.ownerActivity = make([]float64, n)
	rng := g.rng.Split()
	for i := range t.Owners {
		a := math.Exp(0.9 * rng.NormFloat64())
		g.ownerActivity[i] = a
		t.Owners[i].ActiveFriends = int32(rng.Poisson(4*a) + 1)
	}
}

// makePhotos draws the photo population: owner, type, size, upload time,
// and the latent popularity score that drives one-time-ness and access
// counts. The score mixes observable signals (owner activity, type,
// upload freshness) with unobservable noise (cfg.FeatureNoise), which is
// what bounds classifier accuracy below 1.
func (g *generator) makePhotos(t *Trace) {
	cfg := g.cfg
	shares := defaultTypePhotoShares[:]
	if cfg.TypePhotoShares != nil {
		shares = cfg.TypePhotoShares
	}
	boost := defaultTypePopBoost[:]
	if cfg.TypePopBoost != nil {
		boost = cfg.TypePopBoost
	}
	typeCDF := make([]float64, len(shares))
	sum := 0.0
	for i, s := range shares {
		sum += s
		typeCDF[i] = sum
	}
	for i := range typeCDF {
		typeCDF[i] /= sum
	}

	rng := g.rng.Split()
	t.Photos = make([]Photo, cfg.NumPhotos)
	g.latent = make([]float64, cfg.NumPhotos)
	uploadSpan := float64(int64(cfg.PreDays)*86400 + g.horizon)
	for i := range t.Photos {
		p := &t.Photos[i]
		p.Owner = uint32(rng.Intn(cfg.NumOwners))
		p.Type = PhotoType(sort.SearchFloat64s(typeCDF, rng.Float64()))
		p.Size = int64(float64(typeBaseSize[p.Type]) * math.Exp(0.45*rng.NormFloat64()))
		if p.Size < 1024 {
			p.Size = 1024
		}
		p.Upload = -int64(cfg.PreDays)*86400 + int64(rng.Float64()*uploadSpan)
		if p.Upload >= g.horizon {
			p.Upload = g.horizon - 1
		}

		// Freshness: photos uploaded long before the window skew cold.
		preAge := float64(maxI64(0, -p.Upload))
		fresh := math.Exp(-preAge / (5 * 86400))
		g.latent[i] = 0.9*math.Log(g.ownerActivity[p.Owner]) +
			boost[p.Type] +
			0.8*(fresh-0.5) +
			cfg.FeatureNoise*rng.NormFloat64()
	}
}

// assignCounts decides each photo's in-window access count so that the
// one-time object fraction and the unique-access share both hit their
// configured targets exactly in expectation.
func (g *generator) assignCounts(t *Trace) {
	cfg := g.cfg
	rng := g.rng.Split()
	n := len(t.Photos)
	g.counts = make([]int, n)

	a := calibrateIntercept(g.latent, cfg.OneTimeFraction)

	oneTime := 0
	multi := make([]int, 0, n)
	for i, z := range g.latent {
		if rng.Bernoulli(sigmoid(a - z)) {
			g.counts[i] = 1
			oneTime++
		} else {
			multi = append(multi, i)
		}
	}
	if len(multi) == 0 {
		return
	}

	// Draw heavy-tailed counts modulated by latent popularity, then
	// rescale so total accesses T satisfy N/T = UniqueAccessShare.
	var drawn float64
	raw := make([]float64, len(multi))
	for j, i := range multi {
		c := float64(stats.ParetoCount(rng, cfg.ParetoAlpha, 2, cfg.MaxAccessesPerPhoto))
		c *= math.Exp(0.45 * g.latent[i])
		if c < 2 {
			c = 2
		}
		raw[j] = c
		drawn += c
	}
	total := float64(n) / cfg.UniqueAccessShare
	wantMulti := total - float64(oneTime) - float64(len(multi))
	// Scale the counts-beyond-first so Σ(c_i) = wantMulti + len(multi),
	// keeping every multi photo at >= 2 accesses.
	excess := drawn - float64(len(multi))
	scale := 1.0
	if excess > 0 {
		scale = wantMulti / excess
	}
	for j, i := range multi {
		c := 1 + int(math.Round((raw[j]-1)*scale))
		if c < 2 {
			c = 2
		}
		if c > cfg.MaxAccessesPerPhoto {
			c = cfg.MaxAccessesPerPhoto
		}
		g.counts[i] = c
	}
}

// emitRequests places each photo's accesses in time: an age drawn from a
// truncated exponential/uniform mixture (recency bias), then the
// second-of-day redrawn from the diurnal profile. One-time photos use a
// flatter diurnal profile, which makes the one-time share p peak in the
// early morning and bottom in the evening as the paper observes
// (§4.4.3).
func (g *generator) emitRequests(t *Trace) {
	cfg := g.cfg
	rng := g.rng.Split()
	tau := cfg.AgeDecayDays * 86400

	multiDay := newDiurnal(cfg.DiurnalAmplitude)
	oneDay := newDiurnal(cfg.DiurnalAmplitude * 0.45)

	total := 0
	for _, c := range g.counts {
		total += c
	}
	keys := make([]uint64, 0, total)
	for i := range t.Photos {
		p := &t.Photos[i]
		lo := float64(maxI64(0, -p.Upload))
		hi := float64(g.horizon - p.Upload)
		day := multiDay
		if g.counts[i] == 1 {
			day = oneDay
		}
		for j := 0; j < g.counts[i]; j++ {
			var age float64
			if rng.Bernoulli(cfg.UniformAgeShare) {
				age = lo + rng.Float64()*(hi-lo)
			} else {
				age = truncExp(rng, tau, lo, hi)
			}
			at := p.Upload + int64(age)
			if at < 0 {
				at = 0
			}
			if at >= g.horizon {
				at = g.horizon - 1
			}
			// Replace the second-of-day with a diurnal draw, keeping the day.
			d := at / 86400
			at = d*86400 + day.sample(rng)
			if at >= g.horizon {
				at = g.horizon - 1
			}
			term := TerminalPC
			if rng.Bernoulli(cfg.MobileFraction) {
				term = TerminalMobile
			}
			keys = append(keys, uint64(at)<<33|uint64(i)<<1|uint64(term))
		}
	}
	// Sort by (time, photo), the key above the terminal bit. Requests
	// that share a second and a photo stay in the order pdqsort gives
	// them under this comparator; a stable or radix sort would reorder
	// them and change every trace (TestGenerateDigest).
	slices.SortFunc(keys, func(a, b uint64) int {
		return cmp.Compare(a>>1, b>>1)
	})
	t.Requests = make([]Request, len(keys))
	for j, k := range keys {
		t.Requests[j] = Request{Time: int64(k >> 33), Photo: uint32(k >> 1), Terminal: Terminal(k & 1)}
	}
}

// finalizeOwnerFeatures computes each owner's realized AvgViews (total
// views over photo count) and photo count, the social features the
// classifier consumes (§3.2.1).
func (g *generator) finalizeOwnerFeatures(t *Trace) {
	views := make([]int64, len(t.Owners))
	photos := make([]int32, len(t.Owners))
	for i := range t.Photos {
		o := t.Photos[i].Owner
		views[o] += int64(g.counts[i])
		photos[o]++
	}
	for i := range t.Owners {
		t.Owners[i].NumPhotos = photos[i]
		if photos[i] > 0 {
			t.Owners[i].AvgViews = float64(views[i]) / float64(photos[i])
		}
	}
}

// diurnal is a per-minute inverse-CDF sampler for second-of-day, built
// from an anchored intensity profile with its peak at 20:00 and trough
// around 05:00. amplitude=0 degrades to uniform.
type diurnal struct {
	cdf [1440]float64
}

// diurnalAnchors are (hour, relative intensity) control points; linear
// interpolation in between, wrapping at 24 h.
var diurnalAnchors = [][2]float64{
	{0, 0.95}, {2, 0.55}, {5, 0.30}, {7, 0.55}, {9, 0.95}, {12, 1.10},
	{14, 1.00}, {17, 1.20}, {20, 1.90}, {22, 1.55}, {24, 0.95},
}

func baseIntensity(hour float64) float64 {
	for i := 1; i < len(diurnalAnchors); i++ {
		if hour <= diurnalAnchors[i][0] {
			h0, v0 := diurnalAnchors[i-1][0], diurnalAnchors[i-1][1]
			h1, v1 := diurnalAnchors[i][0], diurnalAnchors[i][1]
			f := (hour - h0) / (h1 - h0)
			return v0 + f*(v1-v0)
		}
	}
	return diurnalAnchors[len(diurnalAnchors)-1][1]
}

func newDiurnal(amplitude float64) *diurnal {
	d := &diurnal{}
	var raw [1440]float64
	mean := 0.0
	for m := 0; m < 1440; m++ {
		raw[m] = baseIntensity(float64(m) / 60)
		mean += raw[m]
	}
	mean /= 1440
	cum := 0.0
	for m := 0; m < 1440; m++ {
		lambda := (1 - amplitude) + amplitude*raw[m]/mean
		cum += lambda
		d.cdf[m] = cum
	}
	for m := range d.cdf {
		d.cdf[m] /= cum
	}
	d.cdf[1439] = 1
	return d
}

// sample draws a second-of-day in [0, 86400).
func (d *diurnal) sample(rng *stats.RNG) int64 {
	u := rng.Float64()
	m := sort.SearchFloat64s(d.cdf[:], u)
	return int64(m)*60 + int64(rng.Intn(60))
}

// truncExp samples an exponential with mean tau truncated to [lo, hi).
func truncExp(rng *stats.RNG, tau, lo, hi float64) float64 {
	if hi <= lo {
		return lo
	}
	elo := math.Exp(-lo / tau)
	ehi := math.Exp(-hi / tau)
	u := rng.Float64()
	v := elo - u*(elo-ehi)
	if v <= 0 {
		return hi - 1
	}
	x := -tau * math.Log(v)
	if x < lo {
		x = lo
	}
	if x >= hi {
		x = math.Nextafter(hi, lo)
	}
	return x
}

func sigmoid(x float64) float64 { return 1 / (1 + math.Exp(-x)) }

// calibrateIntercept returns the intercept a of P(one-time) =
// sigmoid(a - z) at which the mean one-time probability over the latent
// scores equals target. Each bisection step evaluates the sigmoid terms
// in parallel and sums them in index order, so the result does not
// depend on GOMAXPROCS.
func calibrateIntercept(latent []float64, target float64) float64 {
	n := len(latent)
	terms := make([]float64, n)
	workers := runtime.GOMAXPROCS(0)
	chunk := (n + workers - 1) / workers
	return bisect(func(a float64) float64 {
		var wg sync.WaitGroup
		for lo := 0; lo < n; lo += chunk {
			hi := min(lo+chunk, n)
			wg.Add(1)
			go func(lo, hi int) {
				defer wg.Done()
				for i, z := range latent[lo:hi] {
					terms[lo+i] = sigmoid(a - z)
				}
			}(lo, hi)
		}
		wg.Wait()
		s := 0.0
		for _, v := range terms {
			s += v
		}
		return s/float64(n) - target
	}, -40, 40)
}

// bisect finds a root of f on [lo, hi] assuming f is monotone
// increasing; it returns the midpoint after 80 halvings.
//
// Once the midpoint equals an endpoint, lo and hi are adjacent floats
// (or equal). Every further halving can at most collapse the other
// endpoint onto that one, and the final midpoint is then still mid, so
// bisect returns it without evaluating f again.
func bisect(f func(float64) float64, lo, hi float64) float64 {
	flo, fhi := f(lo), f(hi)
	if flo > 0 || fhi < 0 {
		// Target is outside the bracket; return the closer endpoint.
		if math.Abs(flo) < math.Abs(fhi) {
			return lo
		}
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if mid == lo || mid == hi {
			return mid
		}
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
