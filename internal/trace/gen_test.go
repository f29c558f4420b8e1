package trace

import (
	"math"
	"testing"

	"otacache/internal/stats"
)

// testTrace generates a moderate trace once and shares it across tests.
var testTraceCache *Trace

func testTrace(t testing.TB) *Trace {
	if testTraceCache == nil {
		tr, err := Generate(DefaultConfig(1, 40000))
		if err != nil {
			t.Fatal(err)
		}
		testTraceCache = tr
	}
	return testTraceCache
}

func TestGenerateDeterminism(t *testing.T) {
	cfg := DefaultConfig(7, 3000)
	a := MustGenerate(cfg)
	b := MustGenerate(cfg)
	if len(a.Requests) != len(b.Requests) {
		t.Fatalf("request counts differ: %d vs %d", len(a.Requests), len(b.Requests))
	}
	for i := range a.Requests {
		if a.Requests[i] != b.Requests[i] {
			t.Fatalf("request %d differs: %+v vs %+v", i, a.Requests[i], b.Requests[i])
		}
	}
	for i := range a.Photos {
		if a.Photos[i] != b.Photos[i] {
			t.Fatalf("photo %d differs", i)
		}
	}
}

func TestGenerateSeedSensitivity(t *testing.T) {
	a := MustGenerate(DefaultConfig(1, 2000))
	b := MustGenerate(DefaultConfig(2, 2000))
	same := 0
	n := len(a.Requests)
	if len(b.Requests) < n {
		n = len(b.Requests)
	}
	for i := 0; i < n; i++ {
		if a.Requests[i] == b.Requests[i] {
			same++
		}
	}
	if same > n/10 {
		t.Fatalf("different seeds produced %d/%d identical requests", same, n)
	}
}

func TestRequestsSortedAndInWindow(t *testing.T) {
	tr := testTrace(t)
	var prev int64 = -1
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Time < prev {
			t.Fatalf("requests not time-sorted at %d", i)
		}
		prev = r.Time
		if r.Time < 0 || r.Time >= tr.Horizon {
			t.Fatalf("request %d time %d outside [0,%d)", i, r.Time, tr.Horizon)
		}
		if int(r.Photo) >= len(tr.Photos) {
			t.Fatalf("request %d references photo %d out of range", i, r.Photo)
		}
	}
}

func TestEveryPhotoAccessed(t *testing.T) {
	tr := testTrace(t)
	seen := make([]bool, len(tr.Photos))
	for i := range tr.Requests {
		seen[tr.Requests[i].Photo] = true
	}
	for i, ok := range seen {
		if !ok {
			t.Fatalf("photo %d never accessed", i)
		}
	}
}

func TestOneTimeCalibration(t *testing.T) {
	s := Summarize(testTrace(t))
	if math.Abs(s.OneTimeObjectFraction-0.615) > 0.03 {
		t.Fatalf("one-time object fraction = %.3f, want 0.615±0.03", s.OneTimeObjectFraction)
	}
	if math.Abs(s.UniqueAccessShare-0.255) > 0.03 {
		t.Fatalf("unique-access share = %.3f, want 0.255±0.03", s.UniqueAccessShare)
	}
	if math.Abs(s.HitRateCap-0.745) > 0.03 {
		t.Fatalf("hit-rate cap = %.3f, want 0.745±0.03", s.HitRateCap)
	}
}

func TestTypeMixCalibration(t *testing.T) {
	s := Summarize(testTrace(t))
	l5 := s.TypeRequestShare[TypeL5]
	if l5 < 0.35 || l5 > 0.55 {
		t.Fatalf("l5 request share = %.3f, want ~0.45 (Figure 3)", l5)
	}
	// l5 must dominate all other types.
	for ty := 0; ty < NumPhotoTypes; ty++ {
		if PhotoType(ty) != TypeL5 && s.TypeRequestShare[ty] >= l5 {
			t.Fatalf("type %v share %.3f >= l5 share %.3f", PhotoType(ty), s.TypeRequestShare[ty], l5)
		}
	}
	sum := 0.0
	for _, v := range s.TypeRequestShare {
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Fatalf("type request shares sum to %v", sum)
	}
}

func TestDiurnalCycle(t *testing.T) {
	s := Summarize(testTrace(t))
	evening := s.HourlyRequests[19] + s.HourlyRequests[20] + s.HourlyRequests[21]
	morning := s.HourlyRequests[4] + s.HourlyRequests[5] + s.HourlyRequests[6]
	if evening <= morning*2 {
		t.Fatalf("evening load (%d) should far exceed early-morning load (%d)", evening, morning)
	}
	// Peak hour should be near 20:00.
	peak := 0
	for h := 1; h < 24; h++ {
		if s.HourlyRequests[h] > s.HourlyRequests[peak] {
			peak = h
		}
	}
	if peak < 18 || peak > 22 {
		t.Fatalf("peak hour = %d, want 18..22", peak)
	}
}

func TestOneTimeShareDiurnalPhase(t *testing.T) {
	// The one-time share p should be higher in the early morning than in
	// the evening peak (§4.4.3: p highest at 05:00, lowest at 20:00).
	s := Summarize(testTrace(t))
	if s.HourlyOneTimeShare[5] <= s.HourlyOneTimeShare[20] {
		t.Fatalf("one-time share at 05:00 (%.3f) should exceed 20:00 (%.3f)",
			s.HourlyOneTimeShare[5], s.HourlyOneTimeShare[20])
	}
}

func TestMobileShare(t *testing.T) {
	s := Summarize(testTrace(t))
	if math.Abs(s.MobileShare-0.7) > 0.02 {
		t.Fatalf("mobile share = %.3f, want 0.7±0.02", s.MobileShare)
	}
}

func TestOwnerFeaturesConsistent(t *testing.T) {
	tr := testTrace(t)
	views := make([]int64, len(tr.Owners))
	photos := make([]int32, len(tr.Owners))
	counts := make([]int64, len(tr.Photos))
	for i := range tr.Requests {
		counts[tr.Requests[i].Photo]++
	}
	for i := range tr.Photos {
		o := tr.Photos[i].Owner
		views[o] += counts[i]
		photos[o]++
	}
	for i := range tr.Owners {
		if tr.Owners[i].NumPhotos != photos[i] {
			t.Fatalf("owner %d NumPhotos = %d, recomputed %d", i, tr.Owners[i].NumPhotos, photos[i])
		}
		if photos[i] == 0 {
			continue
		}
		want := float64(views[i]) / float64(photos[i])
		if math.Abs(tr.Owners[i].AvgViews-want) > 1e-9 {
			t.Fatalf("owner %d AvgViews = %v, recomputed %v", i, tr.Owners[i].AvgViews, want)
		}
		if tr.Owners[i].ActiveFriends < 1 {
			t.Fatalf("owner %d has %d active friends, want >= 1", i, tr.Owners[i].ActiveFriends)
		}
	}
}

func TestPopularityCorrelatesWithOwnerViews(t *testing.T) {
	// Multi-access photos should have owners with systematically higher
	// AvgViews than one-time photos; this is the signal the classifier
	// learns from.
	tr := testTrace(t)
	counts := make([]int64, len(tr.Photos))
	for i := range tr.Requests {
		counts[tr.Requests[i].Photo]++
	}
	var oneSum, multiSum float64
	var oneN, multiN int
	for i := range tr.Photos {
		av := tr.Owners[tr.Photos[i].Owner].AvgViews
		if counts[i] == 1 {
			oneSum += av
			oneN++
		} else {
			multiSum += av
			multiN++
		}
	}
	oneMean, multiMean := oneSum/float64(oneN), multiSum/float64(multiN)
	if multiMean < oneMean*1.2 {
		t.Fatalf("owner AvgViews signal too weak: multi %v vs one-time %v", multiMean, oneMean)
	}
}

func TestPhotoSizesPositiveAndTyped(t *testing.T) {
	tr := testTrace(t)
	var meanL5, meanA5 float64
	var nL5, nA5 int
	for i := range tr.Photos {
		p := &tr.Photos[i]
		if p.Size < 1024 {
			t.Fatalf("photo %d size %d < 1KB", i, p.Size)
		}
		switch p.Type {
		case TypeL5:
			meanL5 += float64(p.Size)
			nL5++
		case TypeA5:
			meanA5 += float64(p.Size)
			nA5++
		}
	}
	if nL5 == 0 || nA5 == 0 {
		t.Fatal("expected both l5 and a5 photos")
	}
	if meanL5/float64(nL5) <= meanA5/float64(nA5) {
		t.Fatal("l5 photos should be larger than a5 photos on average")
	}
}

func TestValidateErrors(t *testing.T) {
	base := DefaultConfig(1, 100)
	mutations := []func(*Config){
		func(c *Config) { c.NumPhotos = 0 },
		func(c *Config) { c.NumOwners = 0 },
		func(c *Config) { c.Days = 0 },
		func(c *Config) { c.Days = maxDays + 1 },
		func(c *Config) { c.PreDays = -1 },
		func(c *Config) { c.OneTimeFraction = 0 },
		func(c *Config) { c.OneTimeFraction = 1 },
		func(c *Config) { c.UniqueAccessShare = 0 },
		func(c *Config) { c.ParetoAlpha = 0 },
		func(c *Config) { c.MaxAccessesPerPhoto = 1 },
		func(c *Config) { c.MobileFraction = 1.5 },
		func(c *Config) { c.DiurnalAmplitude = 1 },
		func(c *Config) { c.AgeDecayDays = 0 },
		func(c *Config) { c.UniformAgeShare = -0.1 },
		func(c *Config) { c.FeatureNoise = -1 },
		func(c *Config) { c.TypePhotoShares = []float64{1} },
		func(c *Config) { c.TypePopBoost = []float64{1} },
	}
	for i, mut := range mutations {
		cfg := base
		mut(&cfg)
		if _, err := Generate(cfg); err == nil {
			t.Fatalf("mutation %d: expected validation error", i)
		}
	}
	if err := base.Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
}

func TestSmallPopulations(t *testing.T) {
	for _, n := range []int{1, 2, 10, 100} {
		cfg := DefaultConfig(3, n)
		tr, err := Generate(cfg)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if len(tr.Photos) != n {
			t.Fatalf("n=%d: got %d photos", n, len(tr.Photos))
		}
		if len(tr.Requests) < n {
			t.Fatalf("n=%d: only %d requests", n, len(tr.Requests))
		}
	}
}

func TestHourOfDay(t *testing.T) {
	cases := []struct {
		sec  int64
		want int
	}{{0, 0}, {3600, 1}, {86399, 23}, {86400, 0}, {-1, 23}, {-3600, 23}}
	for _, c := range cases {
		if got := HourOfDay(c.sec); got != c.want {
			t.Fatalf("HourOfDay(%d) = %d, want %d", c.sec, got, c.want)
		}
	}
}

func TestPhotoTypeStrings(t *testing.T) {
	if TypeL5.String() != "l5" || TypeA0.String() != "a0" {
		t.Fatal("photo type names wrong")
	}
	if TypeA0.Discretized() != 1 || TypeL5.Discretized() != 12 {
		t.Fatal("discretized values must be 1..12")
	}
	if PhotoType(77).String() == "" {
		t.Fatal("out-of-range type must still render")
	}
	if TerminalPC.String() != "pc" || TerminalMobile.String() != "mobile" {
		t.Fatal("terminal names wrong")
	}
}

func TestMustGeneratePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustGenerate with bad config did not panic")
		}
	}()
	MustGenerate(Config{})
}

func TestTruncExpBounds(t *testing.T) {
	rng := newTestRNG()
	for i := 0; i < 10000; i++ {
		x := truncExp(rng, 1000, 50, 500)
		if x < 50 || x >= 500 {
			t.Fatalf("truncExp out of [50,500): %v", x)
		}
	}
	if x := truncExp(rng, 100, 10, 10); x != 10 {
		t.Fatalf("degenerate interval: got %v", x)
	}
}

func TestDiurnalSampler(t *testing.T) {
	rng := newTestRNG()
	d := newDiurnal(0.55)
	var hours [24]int
	for i := 0; i < 200000; i++ {
		s := d.sample(rng)
		if s < 0 || s >= 86400 {
			t.Fatalf("sample out of range: %d", s)
		}
		hours[s/3600]++
	}
	if hours[20] <= hours[5]*2 {
		t.Fatalf("20:00 (%d) should dominate 05:00 (%d)", hours[20], hours[5])
	}
	// Zero amplitude must be uniform-ish.
	u := newDiurnal(0)
	var uh [24]int
	for i := 0; i < 240000; i++ {
		uh[u.sample(rng)/3600]++
	}
	for h, c := range uh {
		if math.Abs(float64(c)-10000) > 1000 {
			t.Fatalf("amplitude 0 hour %d count %d not uniform", h, c)
		}
	}
}

func TestBisect(t *testing.T) {
	root := bisect(func(x float64) float64 { return x - 3 }, -10, 10)
	if math.Abs(root-3) > 1e-9 {
		t.Fatalf("bisect root = %v", root)
	}
	// Out-of-bracket target returns the closest endpoint.
	if r := bisect(func(x float64) float64 { return x + 100 }, -10, 10); r != -10 {
		t.Fatalf("out-of-bracket low: %v", r)
	}
	if r := bisect(func(x float64) float64 { return x - 100 }, -10, 10); r != 10 {
		t.Fatalf("out-of-bracket high: %v", r)
	}
}

// bisectSerial is the calibration loop before it stopped early: 80
// halvings after the two endpoint evaluations, 82 evaluations in all.
func bisectSerial(f func(float64) float64, lo, hi float64) float64 {
	flo, fhi := f(lo), f(hi)
	if flo > 0 || fhi < 0 {
		if math.Abs(flo) < math.Abs(fhi) {
			return lo
		}
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestCalibrateInterceptMatchesSerial pins the parallel, early-stopping
// calibration to the serial 82-evaluation loop, bit for bit.
func TestCalibrateInterceptMatchesSerial(t *testing.T) {
	cfg := DefaultConfig(42, 60000)
	g := &generator{cfg: cfg, rng: stats.NewRNG(cfg.Seed)}
	g.horizon = int64(cfg.Days) * 86400
	var tr Trace
	g.makeOwners(&tr)
	g.makePhotos(&tr)
	for _, target := range []float64{cfg.OneTimeFraction, 0.05, 0.5, 0.95} {
		want := bisectSerial(func(a float64) float64 {
			s := 0.0
			for _, z := range g.latent {
				s += sigmoid(a - z)
			}
			return s/float64(len(g.latent)) - target
		}, -40, 40)
		if got := calibrateIntercept(g.latent, target); got != want {
			t.Errorf("target %g: intercept %v (%#x), serial loop %v (%#x)", target, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
	// Roots on, next to, and far inside the bracket's endpoints.
	for _, f := range []func(float64) float64{
		func(x float64) float64 { return x + 10 },
		func(x float64) float64 { return x - 10 },
		func(x float64) float64 { return math.Floor(x) },
		func(x float64) float64 { return x - 1.0/3 },
		func(x float64) float64 { return x - 5e-300 },
	} {
		if got, want := bisect(f, -10, 10), bisectSerial(f, -10, 10); got != want {
			t.Errorf("bisect %v (%#x), serial loop %v (%#x)", got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}
}

func TestCalibrationTargetsAreTunable(t *testing.T) {
	// The generator must hit overridden calibration targets, not only
	// the paper defaults.
	for _, tc := range []struct{ oneTime, unique float64 }{
		{0.40, 0.20},
		{0.80, 0.35},
	} {
		cfg := DefaultConfig(17, 15000)
		cfg.OneTimeFraction = tc.oneTime
		cfg.UniqueAccessShare = tc.unique
		s := Summarize(MustGenerate(cfg))
		if math.Abs(s.OneTimeObjectFraction-tc.oneTime) > 0.05 {
			t.Fatalf("one-time %.3f, want %.2f", s.OneTimeObjectFraction, tc.oneTime)
		}
		if math.Abs(s.UniqueAccessShare-tc.unique) > 0.05 {
			t.Fatalf("unique share %.3f, want %.2f", s.UniqueAccessShare, tc.unique)
		}
	}
}

func TestDiurnalAmplitudeZeroFlattens(t *testing.T) {
	cfg := DefaultConfig(19, 15000)
	cfg.DiurnalAmplitude = 0
	s := Summarize(MustGenerate(cfg))
	min, max := s.HourlyRequests[0], s.HourlyRequests[0]
	for _, c := range s.HourlyRequests {
		if c < min {
			min = c
		}
		if c > max {
			max = c
		}
	}
	if float64(max) > 1.35*float64(min) {
		t.Fatalf("amplitude 0 should flatten hours: min %d max %d", min, max)
	}
}

// TestGenerateMaxDays checks the packed request sort at the longest
// supported window: times survive the 31-bit packing and stay sorted.
func TestGenerateMaxDays(t *testing.T) {
	cfg := DefaultConfig(3, 2000)
	cfg.Days = maxDays
	tr := MustGenerate(cfg)
	for i := range tr.Requests {
		r := &tr.Requests[i]
		if r.Time < 0 || r.Time >= tr.Horizon {
			t.Fatalf("request %d time %d outside [0,%d)", i, r.Time, tr.Horizon)
		}
		if i > 0 {
			p := &tr.Requests[i-1]
			if p.Time > r.Time || p.Time == r.Time && p.Photo > r.Photo {
				t.Fatalf("requests %d and %d out of order: %+v, %+v", i-1, i, *p, *r)
			}
		}
	}
}
