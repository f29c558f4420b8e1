package trace

import "fmt"

// Config parameterizes the synthetic trace generator. DefaultConfig
// returns values calibrated to reproduce the workload statistics the
// paper reports for the QQPhoto trace (see package comment).
type Config struct {
	// Seed drives all randomness; equal seeds produce equal traces.
	Seed uint64

	// NumPhotos is the object population size.
	NumPhotos int
	// NumOwners is the owner population size.
	NumOwners int
	// Days is the observation-window length (the paper's log is 9 days),
	// at most 24 855 (2^31 seconds).
	Days int
	// PreDays is how far before the window photos may have been uploaded.
	PreDays int

	// OneTimeFraction is the fraction of objects accessed exactly once
	// (the paper measures 61.5 %).
	OneTimeFraction float64
	// UniqueAccessShare is the fraction of accesses that are first
	// accesses to their object; an infinite cache's hit rate is capped at
	// 1-UniqueAccessShare (the paper measures ~25.5 %, capping hit rate
	// at 74.5 %).
	UniqueAccessShare float64

	// ParetoAlpha shapes the heavy tail of per-object access counts for
	// the multi-access population.
	ParetoAlpha float64
	// MaxAccessesPerPhoto bounds a single object's access count.
	MaxAccessesPerPhoto int

	// MobileFraction is the share of requests from mobile terminals.
	MobileFraction float64

	// DiurnalAmplitude in [0,1) scales the day/night request-rate swing;
	// 0 disables the diurnal cycle. The cycle peaks at 20:00 and bottoms
	// at 05:00 (§4.4.3).
	DiurnalAmplitude float64

	// AgeDecayDays is the mean of the exponential photo-age distribution
	// at access time: most requests target recently uploaded photos.
	AgeDecayDays float64
	// UniformAgeShare is the share of accesses whose age is drawn
	// uniformly over the photo's visible lifetime instead of from the
	// exponential, providing a long-tail of accesses to old photos.
	UniformAgeShare float64

	// FeatureNoise is the standard deviation of the latent-popularity
	// noise that is NOT observable through any feature. Larger values
	// lower the ceiling on classifier accuracy; the default is tuned so a
	// cost-sensitive CART lands near the paper's ~0.86 accuracy.
	FeatureNoise float64

	// TypePhotoShares gives the probability that a photo belongs to each
	// of the twelve types. Leave nil for the calibrated default, which
	// combined with TypePopBoost yields ~45 % of requests on type l5.
	TypePhotoShares []float64
	// TypePopBoost gives each type's additive boost to the latent
	// popularity score. Leave nil for the calibrated default.
	TypePopBoost []float64
}

// DefaultConfig returns the calibrated configuration at a given object
// scale. numPhotos of ~300000 yields roughly 1.2 M requests and a ~13 GB
// storage footprint, making the paper's 2–20 GB capacity sweep
// meaningful. Smaller populations scale everything down proportionally.
func DefaultConfig(seed uint64, numPhotos int) Config {
	return Config{
		Seed:                seed,
		NumPhotos:           numPhotos,
		NumOwners:           maxInt(1, numPhotos/6),
		Days:                9,
		PreDays:             30,
		OneTimeFraction:     0.615,
		UniqueAccessShare:   0.255,
		ParetoAlpha:         1.25,
		MaxAccessesPerPhoto: 2000,
		MobileFraction:      0.7,
		DiurnalAmplitude:    0.7,
		AgeDecayDays:        1.5,
		UniformAgeShare:     0.2,
		FeatureNoise:        0.85,
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// maxDays is the longest window Generate supports: it sorts requests
// as packed keys holding the request time in 31 bits of seconds.
const maxDays = (1<<31 - 1) / 86400

// Validate reports the first configuration problem found, or nil.
func (c *Config) Validate() error {
	switch {
	case c.NumPhotos <= 0:
		return fmt.Errorf("trace: NumPhotos must be positive, got %d", c.NumPhotos)
	case c.NumOwners <= 0:
		return fmt.Errorf("trace: NumOwners must be positive, got %d", c.NumOwners)
	case c.Days <= 0:
		return fmt.Errorf("trace: Days must be positive, got %d", c.Days)
	case c.Days > maxDays:
		return fmt.Errorf("trace: Days must be at most %d, got %d", maxDays, c.Days)
	case c.PreDays < 0:
		return fmt.Errorf("trace: PreDays must be non-negative, got %d", c.PreDays)
	case c.OneTimeFraction <= 0 || c.OneTimeFraction >= 1:
		return fmt.Errorf("trace: OneTimeFraction must be in (0,1), got %g", c.OneTimeFraction)
	case c.UniqueAccessShare <= 0 || c.UniqueAccessShare >= 1:
		return fmt.Errorf("trace: UniqueAccessShare must be in (0,1), got %g", c.UniqueAccessShare)
	case c.ParetoAlpha <= 0:
		return fmt.Errorf("trace: ParetoAlpha must be positive, got %g", c.ParetoAlpha)
	case c.MaxAccessesPerPhoto < 2:
		return fmt.Errorf("trace: MaxAccessesPerPhoto must be >= 2, got %d", c.MaxAccessesPerPhoto)
	case c.MobileFraction < 0 || c.MobileFraction > 1:
		return fmt.Errorf("trace: MobileFraction must be in [0,1], got %g", c.MobileFraction)
	case c.DiurnalAmplitude < 0 || c.DiurnalAmplitude >= 1:
		return fmt.Errorf("trace: DiurnalAmplitude must be in [0,1), got %g", c.DiurnalAmplitude)
	case c.AgeDecayDays <= 0:
		return fmt.Errorf("trace: AgeDecayDays must be positive, got %g", c.AgeDecayDays)
	case c.UniformAgeShare < 0 || c.UniformAgeShare > 1:
		return fmt.Errorf("trace: UniformAgeShare must be in [0,1], got %g", c.UniformAgeShare)
	case c.FeatureNoise < 0:
		return fmt.Errorf("trace: FeatureNoise must be non-negative, got %g", c.FeatureNoise)
	}
	if c.TypePhotoShares != nil && len(c.TypePhotoShares) != NumPhotoTypes {
		return fmt.Errorf("trace: TypePhotoShares must have %d entries, got %d", NumPhotoTypes, len(c.TypePhotoShares))
	}
	if c.TypePopBoost != nil && len(c.TypePopBoost) != NumPhotoTypes {
		return fmt.Errorf("trace: TypePopBoost must have %d entries, got %d", NumPhotoTypes, len(c.TypePopBoost))
	}
	return nil
}

// defaultTypePhotoShares is the object-population share per type.
// Request shares differ because TypePopBoost skews popularity: together
// they put ~45 % of requests on l5, matching Figure 3.
var defaultTypePhotoShares = [NumPhotoTypes]float64{
	// a0   a5    b0    b5    c0    c5    m0    m5    o0    o5    l0    l5
	0.035, 0.07, 0.03, 0.06, 0.03, 0.07, 0.035, 0.13, 0.045, 0.09, 0.045, 0.36,
}

// defaultTypePopBoost is each type's additive latent-popularity boost.
var defaultTypePopBoost = [NumPhotoTypes]float64{
	// a0   a5    b0    b5    c0    c5    m0    m5    o0    o5    l0    l5
	-0.9, -0.5, -0.8, -0.4, -0.7, -0.2, -0.5, 0.25, -0.6, -0.1, -0.3, 0.55,
}

// typeBaseSize is the size scale per type in bytes: resolution drives
// size (a<b<c<m<l<o) and png (spec 0) runs larger than jpg (spec 5),
// matching the paper's observation that size correlates with resolution.
var typeBaseSize = [NumPhotoTypes]int64{
	// a0           a5          b0           b5          c0           c5
	6 * 1024, 4 * 1024, 12 * 1024, 8 * 1024, 24 * 1024, 16 * 1024,
	// m0           m5          o0            o5           l0           l5
	48 * 1024, 32 * 1024, 384 * 1024, 256 * 1024, 96 * 1024, 64 * 1024,
}
