package main

import (
	"net/http"
	"strconv"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/flash"
	"otacache/internal/mlcore"
)

// The decorators below sit on the seams the code already exposes and
// record one span around each call into a layer's public interface.
// While the recorder is off (warm-up) they only forward.

// reqHeader carries the benchmark's request id to the server side.
const reqHeader = "X-Bench-Req"

// tracedServer decorates engine.Server. For a sharded engine it performs
// ShardedEngine.Lookup's two steps itself — ShardFor, then the owning
// shard's Lookup — so the ring walk gets its own span.
type tracedServer struct {
	engine.Server
	rec *recorder
	// shards is non-nil only for a sharded inner server.
	shards []*engine.Engine
}

func newTracedServer(inner engine.Server, rec *recorder) *tracedServer {
	s := &tracedServer{Server: inner, rec: rec}
	if sh := inner.Shards(); len(sh) > 1 {
		s.shards = sh
	}
	return s
}

func (s *tracedServer) NextTick() int {
	if !s.rec.on.Load() {
		return s.Server.NextTick()
	}
	s.rec.begin(spNextTick)
	t := s.Server.NextTick()
	s.rec.end()
	return t
}

func (s *tracedServer) Lookup(key uint64, size int64, tick int, feat []float64) engine.Outcome {
	if !s.rec.on.Load() {
		return s.Server.Lookup(key, size, tick, feat)
	}
	s.rec.begin(spEngineLookup)
	var out engine.Outcome
	if s.shards == nil {
		out = s.Server.Lookup(key, size, tick, feat)
	} else {
		s.rec.begin(spRingRoute)
		i := s.Server.ShardFor(key)
		s.rec.end()
		out = s.shards[i].Lookup(key, size, tick, feat)
	}
	s.rec.end()
	return out
}

// tracedPolicy decorates cache.Policy, forwarding the optional
// cache.Remover and cache.Ranger the engine and the snapshot path probe
// for.
type tracedPolicy struct {
	cache.Policy
	rec *recorder
}

func (p *tracedPolicy) Get(key uint64, tick int) bool {
	if !p.rec.on.Load() {
		return p.Policy.Get(key, tick)
	}
	p.rec.begin(spCacheGet)
	hit := p.Policy.Get(key, tick)
	p.rec.end()
	return hit
}

func (p *tracedPolicy) Admit(key uint64, size int64, tick int) {
	if !p.rec.on.Load() {
		p.Policy.Admit(key, size, tick)
		return
	}
	p.rec.begin(spCacheAdmit)
	p.Policy.Admit(key, size, tick)
	p.rec.end()
}

func (p *tracedPolicy) Contains(key uint64) bool {
	if !p.rec.on.Load() {
		return p.Policy.Contains(key)
	}
	if !p.rec.beginContains() {
		return p.Policy.Contains(key)
	}
	ok := p.Policy.Contains(key)
	p.rec.end()
	return ok
}

// Remove implements cache.Remover.
func (p *tracedPolicy) Remove(key uint64) bool {
	if r, ok := p.Policy.(cache.Remover); ok {
		return r.Remove(key)
	}
	return false
}

// Range implements cache.Ranger.
func (p *tracedPolicy) Range(fn func(key uint64, size int64) bool) {
	if r, ok := p.Policy.(cache.Ranger); ok {
		r.Range(fn)
	}
}

// tracedFilter decorates the engine's admission filter (the breaker
// around the classifier admission, or admit-all).
type tracedFilter struct {
	inner core.Filter
	rec   *recorder
}

func (f *tracedFilter) Name() string { return f.inner.Name() }

// Primary lets server.Admissions unwrap through the decorator to the
// classifier admission, as it does through the breaker.
func (f *tracedFilter) Primary() core.Filter { return f.inner }

func (f *tracedFilter) Decide(key uint64, tick int, feat []float64) core.Decision {
	if !f.rec.on.Load() {
		return f.inner.Decide(key, tick, feat)
	}
	f.rec.begin(spDecide)
	d := f.inner.Decide(key, tick, feat)
	f.rec.end()
	return d
}

// tracedClassifier decorates the model inside ClassifierAdmission
// (installed through SetClassifier).
type tracedClassifier struct {
	mlcore.Classifier
	rec *recorder
}

func (c *tracedClassifier) Predict(x []float64) int {
	if !c.rec.on.Load() {
		return c.Classifier.Predict(x)
	}
	c.rec.begin(spPredict)
	y := c.Classifier.Predict(x)
	c.rec.end()
	return y
}

func (c *tracedClassifier) Score(x []float64) float64 {
	if !c.rec.on.Load() {
		return c.Classifier.Score(x)
	}
	c.rec.begin(spPredict)
	y := c.Classifier.Score(x)
	c.rec.end()
	return y
}

// tracedDevice decorates flash.Device.
type tracedDevice struct {
	inner flash.Device
	rec   *recorder
}

func (d *tracedDevice) Program(seg int, off int64, p []byte) error {
	if !d.rec.on.Load() {
		return d.inner.Program(seg, off, p)
	}
	d.rec.begin(spDevProgram)
	err := d.inner.Program(seg, off, p)
	d.rec.end()
	return err
}

func (d *tracedDevice) Read(seg int, off int64, p []byte) error {
	if !d.rec.on.Load() {
		return d.inner.Read(seg, off, p)
	}
	d.rec.begin(spDevRead)
	err := d.inner.Read(seg, off, p)
	d.rec.end()
	return err
}

func (d *tracedDevice) Erase(seg int) error {
	if !d.rec.on.Load() {
		return d.inner.Erase(seg)
	}
	d.rec.begin(spDevErase)
	err := d.inner.Erase(seg)
	d.rec.end()
	return err
}

// tracedHandler decorates srv.Handler(). It takes the request id from
// the header the client side set, and refuses to record a request other
// than the one in flight — that would mean two requests overlapped and
// the single span stack is no longer valid.
type tracedHandler struct {
	inner http.Handler
	rec   *recorder
}

func (h *tracedHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	id := r.Header.Get(reqHeader)
	if !h.rec.on.Load() || id == "" {
		h.inner.ServeHTTP(w, r)
		return
	}
	if n, err := strconv.ParseInt(id, 10, 64); err != nil || n != h.rec.currentReq() {
		h.rec.reqMismatches.Add(1)
	}
	h.rec.begin(spHandler)
	h.inner.ServeHTTP(w, r)
	h.rec.end()
}

// tracedTransport decorates the client's http.RoundTripper and stamps
// the request id header.
type tracedTransport struct {
	inner http.RoundTripper
	rec   *recorder
}

func (t *tracedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	if !t.rec.on.Load() {
		return t.inner.RoundTrip(req)
	}
	// A RoundTripper must not modify the caller's request.
	req = req.Clone(req.Context())
	req.Header.Set(reqHeader, strconv.FormatInt(t.rec.currentReq(), 10))
	t.rec.begin(spRoundTrip)
	resp, err := t.inner.RoundTrip(req)
	t.rec.end()
	return resp, err
}
