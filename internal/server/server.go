// Package server puts the serving engine on the network: an HTTP cache
// daemon (otacached) exposing an engine.Server — a single engine.Engine
// or an engine.ShardedEngine routing keys by a seeded hash to
// independent engine shards — to remote clients, with the
// operational surface a production cache node needs: cumulative and
// per-shard metrics, classifier hot-swap across all shards (the
// wire-level analogue of the §4.4.3 daily retrain), live retraining
// from served traffic, header-read and control-plane timeouts, a
// connection cap, and graceful drain.
//
// # Wire protocol
//
// Object path (the serving hot path; keys are decimal uint64):
//
//	GET /object/{key}   full lookup: policy Get, and on a miss the
//	                    admission decision + insertion. 200 on a hit,
//	                    404 on a miss; the decision rides on headers
//	                    (X-Ota-Admitted, X-Ota-Written, X-Ota-Rectified,
//	                    X-Ota-Predicted-One-Time).
//	PUT /object/{key}   offer only (no Get): the return-path admission a
//	                    tiered front issues after fetching from the next
//	                    hop. Always 200 with the decision headers.
//
// Both take the object size in the X-Ota-Size header (bytes, required)
// and the projected feature vector in X-Ota-Feat (comma-separated
// finite floats, required when the engine runs the classifier filter;
// NaN or ±Inf is a 400). The server assigns ticks from the engine's
// own counter — a live daemon has no trace ordering — so reaccess
// distances are measured in served requests, exactly as the history
// table expects.
//
// Control plane:
//
//	GET /metrics           the Prometheus text exposition: every
//	                       engine.Metrics counter since boot with its
//	                       per-shard breakdown, occupancy, breaker and
//	                       flash state, and the latency histograms.
//	                       Client.Stats parses it; intervals are the
//	                       difference of two scrapes (Metrics.Sub).
//	GET /admin/trace       the sampled decision-trace ring.
//	GET /healthz           liveness probe.
//	GET /readyz            readiness probe: 503 while a snapshot is
//	                       being restored or the drain has begun, 200
//	                       once object traffic will be served.
//	PUT /admin/classifier  hot-swap: body is a cart.Tree binary stream
//	                       (cart.(*Tree).WriteTo / cmd/trainer -save);
//	                       the model is installed into every engine
//	                       shard under one swap lock, so concurrent
//	                       swaps cannot leave shards on mixed models.
//	POST /admin/retrain    train a fresh tree from the attached
//	                       retrainer's matured live samples and install
//	                       it (the on-demand form of the daily retrain).
//	POST /admin/snapshot   write a crash-safe state snapshot now (with
//	                       an attached Snapshotter).
//
// Responses decided by the circuit breaker's fallback (classifier
// error, panic, or latency-budget overrun) carry X-Ota-Degraded: true;
// /metrics reports the breaker state and the degraded-decision count.
//
// # Serving
//
// Serve runs the daemon's own HTTP/1.1 connection loop, one goroutine
// per connection; net/http's server is not on the serving path. A
// request head of the object route's exact shape (GET|PUT
// /object/<decimal> HTTP/1.1, token header names, exactly one Host, at
// most one X-Ota-Size and X-Ota-Feat, Content-Length absent or 0,
// Connection keep-alive or close, no Transfer-Encoding, Expect, Upgrade
// or Trailer, the whole head within 4 KiB) is parsed and answered by
// the object codec (wire.go) on the connection goroutine, allocating
// nothing. Every other request is read by http.ReadRequest and served
// by Handler() through a buffered ResponseWriter, with net/http's
// rules for the response head and the connection's reuse; a
// differential test and two fuzz targets hold the two paths to
// net/http's answers. The client's default transport writes and reads
// object requests through the same codec.
package server

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/cache"
	"otacache/internal/core"
	"otacache/internal/engine"
	"otacache/internal/faults"
	"otacache/internal/flash"
	"otacache/internal/ml/cart"
	"otacache/internal/obs"
)

// Config carries the operational knobs of one daemon.
type Config struct {
	// MaxConns caps concurrently open connections (0 = unlimited): the
	// accept loop takes a slot before each Accept, and a connection
	// gives it back when it closes, so an idle keep-alive connection
	// holds one.
	MaxConns int
	// RequestTimeout bounds reading each request's head, counted from
	// accept for a connection's first request and from the first byte
	// for every later one (a connection idle between requests has no
	// deadline), and the handling of every request but GET and PUT
	// /object/<decimal key> (0 = 5s). Object requests run on the
	// connection goroutine with no handler timeout: their handler does
	// no I/O, so the head read is the only wait they have.
	RequestTimeout time.Duration
	// NumFeatures is the expected X-Ota-Feat vector length; requests
	// with a different length are rejected with 400 before they can
	// reach the classifier (0 = do not enforce).
	NumFeatures int
	// Clock supplies the server's notion of time: uptime accounting and
	// every latency measurement on /metrics (nil = wall clock). Tests
	// substitute a faults.FakeClock to make timings deterministic.
	Clock faults.Clock
	// SampleEvery is the 1-in-N latency sampling period shared by the
	// HTTP handler, the engine lookup instruments the server attaches,
	// and the flash read and program paths (0 = engine.DefaultSampleEvery;
	// 1 = time every request).
	SampleEvery int
	// TraceCap is the decision-trace ring capacity (0 = 1024; negative
	// disables tracing and /admin/trace answers 409).
	TraceCap int
	// TraceSampleEvery traces 1 in N object requests (0 = 16; 1 = every
	// request).
	TraceSampleEvery int
}

func (c *Config) normalize() {
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.Clock == nil {
		c.Clock = faults.WallClock{}
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = engine.DefaultSampleEvery
	}
	if c.TraceCap == 0 {
		c.TraceCap = 1024
	}
	if c.TraceSampleEvery <= 0 {
		c.TraceSampleEvery = 16
	}
}

// Server serves one engine.Server over HTTP — a plain engine.Engine or
// a ShardedEngine. Every shard's composed policy and filter must be
// safe for concurrent use (a cache.Sharded policy and any of the
// core filters), since every request runs on its own
// connection goroutine.
type Server struct {
	eng engine.Server
	cfg Config
	// shards caches eng.Shards(); the slices below are indexed by shard.
	shards []*engine.Engine
	// admissions holds each shard's admission system when one is
	// composed (possibly behind a circuit breaker), enabling the
	// hot-swap and retrain endpoints; nil entries mean that shard has
	// none.
	admissions []*core.ClassifierAdmission
	// classified reports that at least one shard runs the classifier,
	// so object requests must carry features.
	classified bool
	// breakers holds each shard's circuit breaker when one wraps its
	// filter (nil entries otherwise), surfaced through /metrics.
	breakers []*engine.Breaker
	// swapMu serializes classifier installs across shards: a swap is
	// atomic with respect to other swaps, never half-applied.
	swapMu    sync.Mutex
	retrainer *Retrainer
	snap      *Snapshotter
	// handler is the net/http side of the wire protocol (Handler): the
	// connection loop serves every request the object codec declines
	// through it.
	handler http.Handler
	// The connection loop's state (conn.go): the listeners Serve is
	// accepting on and the open connections, both under mu; shutdown
	// is set, and quit closed, once Shutdown begins.
	mu        sync.Mutex
	listeners map[net.Listener]struct{}
	conns     map[*conn]struct{}
	shutdown  atomic.Bool
	quit      chan struct{}
	quitOnce  sync.Once
	// clock supplies the server's notion of time (uptime accounting and
	// all latency measurement); tests substitute a faults.FakeClock.
	clock   faults.Clock
	started time.Time

	// The measurement plane: the decision-trace ring (nil when
	// disabled), the object-handler latency histogram and its sampler,
	// and the snapshot save/restore histograms. Per-stage engine and
	// flash histograms live on the shards' Instruments and Observers;
	// /metrics merges them into the fleet view.
	trace       *obs.Ring
	httpHist    *obs.Histogram
	httpSampler *obs.Sampler
	snapSave    *obs.Histogram
	snapRestore *obs.Histogram

	// notReady carries the reason the daemon is not ready to serve
	// (restoring a snapshot, draining on SIGTERM); empty means ready.
	notReady atomic.Value // string
	// panics counts handler panics absorbed by the recovery middleware.
	panics atomic.Int64
	// encodeErrors counts response bodies that failed to write (the
	// client vanished mid-response); surfaced through /metrics.
	encodeErrors atomic.Int64

	// testHookRequest, when set, runs inside every object handler —
	// tests use it to hold requests in flight across a Shutdown.
	testHookRequest func()
}

// New wraps an engine (single or sharded) for serving. The classifier
// admin endpoints are enabled automatically when the shard filters are
// the classification system, directly or behind a circuit breaker. A
// new server is ready; use SetNotReady around snapshot restoration.
func New(eng engine.Server, cfg Config) *Server {
	cfg.normalize()
	s := &Server{eng: eng, cfg: cfg, clock: cfg.Clock, quit: make(chan struct{})}
	s.started = s.clock.Now()
	s.notReady.Store("")
	s.shards = eng.Shards()
	s.admissions = make([]*core.ClassifierAdmission, len(s.shards))
	s.breakers = make([]*engine.Breaker, len(s.shards))
	s.httpHist = obs.NewHistogram()
	s.httpSampler = obs.NewSampler(cfg.SampleEvery)
	s.snapSave = obs.NewHistogram()
	s.snapRestore = obs.NewHistogram()
	if cfg.TraceCap > 0 {
		s.trace = obs.NewRing(cfg.TraceCap, cfg.TraceSampleEvery)
	}
	for i, sh := range s.shards {
		s.breakers[i], _ = sh.Filter().(*engine.Breaker)
		s.admissions[i] = engine.Admission(sh.Filter())
		if s.admissions[i] != nil {
			s.classified = true
		}
		// Attach the measurement plane to every shard that arrived bare:
		// lookup timing on the engine, classifier timing on the breaker,
		// read/program/GC timing on the flash store. Shards instrumented
		// by the assembler (tests injecting a fake clock) keep theirs.
		if sh.Instruments() == nil {
			sh.SetInstruments(engine.NewInstruments(s.clock, cfg.SampleEvery))
		}
		if br := s.breakers[i]; br != nil {
			br.SetHistogram(sh.Instruments().Classifier)
		}
		if fs := sh.Flash(); fs != nil && fs.Observer() == nil {
			fs.SetObserver(flash.NewObserver(s.clock.Now, cfg.SampleEvery))
		}
	}
	object := s.recoverPanics(http.HandlerFunc(s.handleObject))
	rest := http.TimeoutHandler(s.recoverPanics(s.mux()), cfg.RequestTimeout, "request timeout\n")
	s.handler = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if key, ok := objectKey(r); ok {
			r.SetPathValue("key", key)
			object.ServeHTTP(w, r)
			return
		}
		rest.ServeHTTP(w, r)
	})
	return s
}

// objectKey recognizes the object route in a request net/http parsed,
// GET or PUT /object/ and one segment of decimal digits, returning that
// segment. It runs on the connection goroutine: no mux match and no
// TimeoutHandler, which would start a goroutine per request. Anything
// else, including every path the mux would clean or redirect, goes to
// the mux, whose object routes serve the same handler.
func objectKey(r *http.Request) (string, bool) {
	if r.Method != http.MethodGet && r.Method != http.MethodPut {
		return "", false
	}
	key, ok := strings.CutPrefix(r.URL.Path, "/object/")
	if !ok || key == "" {
		return "", false
	}
	for i := 0; i < len(key); i++ {
		if key[i] < '0' || key[i] > '9' {
			return "", false
		}
	}
	return key, true
}

// recoverPanics is the outermost handler layer: a panicking handler
// (or anything it calls that the admission breaker does not already
// absorb) becomes a 500 and a counted incident instead of a torn
// connection, keeping one poisoned request from looking like a daemon
// crash to the client fleet.
func (s *Server) recoverPanics(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler { // deliberate abort, not a fault
				panic(rec)
			}
			s.panics.Add(1)
			http.Error(w, "internal error", http.StatusInternalServerError)
		}()
		h.ServeHTTP(w, r)
	})
}

// writeJSON renders one JSON response body. By the time encoding
// fails the status line is already committed, so nothing can be sent
// to the client anymore; the failure is charged to EncodeErrors
// instead of vanishing.
func (s *Server) writeJSON(w http.ResponseWriter, v any) {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		s.encodeErrors.Add(1)
	}
}

// PanicsRecovered returns how many handler panics the middleware has
// absorbed since boot.
func (s *Server) PanicsRecovered() int64 { return s.panics.Load() }

// SetNotReady marks the daemon not ready for traffic (reason required):
// /readyz turns 503 while liveness stays green. Used around snapshot
// restoration and during drain.
func (s *Server) SetNotReady(reason string) {
	if reason == "" {
		reason = "not ready"
	}
	s.notReady.Store(reason)
}

// SetReady marks the daemon ready: /readyz turns 200.
func (s *Server) SetReady() { s.notReady.Store("") }

// Ready reports whether the daemon currently serves /readyz with 200.
func (s *Server) Ready() bool { return s.notReadyReason() == "" }

// notReadyReason returns why the daemon is not ready ("" when it is):
// an explicit gate (restoring, draining) or a flash device at EOL.
func (s *Server) notReadyReason() string {
	if reason := s.notReady.Load().(string); reason != "" {
		return reason
	}
	for i, sh := range s.shards {
		exhausted := false
		sh.WithFlash(func(_ cache.Policy, fs *flash.Store) { exhausted = fs != nil && fs.Exhausted() })
		if exhausted {
			return fmt.Sprintf("shard %d flash spare pool exhausted (device EOL)", i)
		}
	}
	return ""
}

// Engine returns the served engine (single or sharded).
func (s *Server) Engine() engine.Server { return s.eng }

// Admissions is engine.Admissions, kept here for the benchmark harness.
func Admissions(eng engine.Server) []*core.ClassifierAdmission { return engine.Admissions(eng) }

// AttachRetrainer wires a live retrainer into the serving path: every
// object request is observed for sampling and labeling, and the
// /admin/retrain endpoint becomes available. Must be called before
// Serve.
func (s *Server) AttachRetrainer(rt *Retrainer) { s.retrainer = rt }

// Retrainer returns the attached retrainer (nil if none).
func (s *Server) Retrainer() *Retrainer { return s.retrainer }

// Handler returns the daemon's full HTTP handler (the object route and
// the control plane's per-request timeout included), for tests and
// embedders that bring their own listener management. Serve answers
// every request as this handler does under net/http's server.
func (s *Server) Handler() http.Handler { return s.handler }

// mux routes the wire protocol.
func (s *Server) mux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /object/{key}", s.handleObject)
	mux.HandleFunc("PUT /object/{key}", s.handleObject)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /admin/trace", s.handleTrace)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("GET /readyz", s.handleReady)
	mux.HandleFunc("PUT /admin/classifier", s.handleSwapClassifier)
	mux.HandleFunc("POST /admin/retrain", s.handleRetrain)
	mux.HandleFunc("POST /admin/snapshot", s.handleSnapshot)
	return mux
}

// handleReady is the readiness probe, distinct from liveness: a daemon
// restoring a snapshot or draining on SIGTERM is alive (healthz 200)
// but must not receive traffic (readyz 503), so a load balancer or the
// otaload wait-for-ready loop holds off without declaring it dead.
// Readiness also covers the flash fault domain: a shard whose spare
// pool is exhausted can no longer retire failing erase blocks, so the
// device is at end of life and the node should rotate out of the
// serving set. Liveness stays green the whole time — the process is
// healthy, its media is not — so orchestration replaces the node
// instead of restarting a daemon that would come back just as worn.
func (s *Server) handleReady(w http.ResponseWriter, _ *http.Request) {
	if reason := s.notReadyReason(); reason != "" {
		http.Error(w, "not ready: "+reason, http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ready")
}

// text is the two forms an object request's fields arrive in: strings
// from a parsed *http.Request, bytes from the codec's read buffer.
type text interface{ ~string | ~[]byte }

// parseObject extracts the key, size, and feature vector of one object
// request parsed by net/http.
func (s *Server) parseObject(r *http.Request) (key uint64, size int64, feat []float64, err error) {
	return parseObjectFields(s, r.PathValue("key"), r.Header.Get("X-Ota-Size"), r.Header.Get("X-Ota-Feat"), nil)
}

// parseObjectFields is the object route's one validation: the key
// segment, the X-Ota-Size value and the X-Ota-Feat value (empty when
// absent) become the key, the size and the feature vector, enforcing
// the configured feature arity. The vector is decoded into buf when it
// fits there.
func parseObjectFields[T text](s *Server, keySeg, sizeHdr, featHdr T, buf []float64) (key uint64, size int64, feat []float64, err error) {
	key, err = strconv.ParseUint(string(keySeg), 10, 64)
	if err != nil {
		return 0, 0, nil, fmt.Errorf("bad key: %v", err)
	}
	if len(sizeHdr) == 0 {
		return 0, 0, nil, fmt.Errorf("missing X-Ota-Size header")
	}
	size, err = strconv.ParseInt(string(sizeHdr), 10, 64)
	if err != nil || size <= 0 {
		return 0, 0, nil, fmt.Errorf("bad X-Ota-Size %q", sizeHdr)
	}
	if len(featHdr) > 0 {
		n := 1
		for i := 0; i < len(featHdr); i++ {
			if featHdr[i] == ',' {
				n++
			}
		}
		if feat = buf[:0]; cap(feat) < n {
			feat = make([]float64, n)
		}
		feat = feat[:n]
		for i := range feat {
			p := featHdr
			if j := indexComma(featHdr); j >= 0 {
				p, featHdr = featHdr[:j], featHdr[j+1:]
			}
			feat[i], err = strconv.ParseFloat(strings.TrimSpace(string(p)), 64)
			if err != nil || math.IsNaN(feat[i]) || math.IsInf(feat[i], 0) {
				return 0, 0, nil, fmt.Errorf("bad X-Ota-Feat element %q", p)
			}
		}
	}
	if s.cfg.NumFeatures > 0 && feat != nil && len(feat) != s.cfg.NumFeatures {
		return 0, 0, nil, fmt.Errorf("X-Ota-Feat has %d features, want %d", len(feat), s.cfg.NumFeatures)
	}
	if s.classified && feat == nil {
		return 0, 0, nil, fmt.Errorf("classifier admission requires X-Ota-Feat")
	}
	return key, size, feat, nil
}

func indexComma[T text](b T) int {
	for i := 0; i < len(b); i++ {
		if b[i] == ',' {
			return i
		}
	}
	return -1
}

// serveObject is the object route past the wire, for handleObject and
// the codec alike: parse, the retrainer's sample, the engine call, and
// the latency and trace records. A non-nil error is a 400 with its
// text. feat is the decoded vector (in buf when it fitted).
func serveObject[T text](s *Server, offer bool, keySeg, sizeHdr, featHdr T, buf []float64) (out engine.Outcome, feat []float64, err error) {
	t := s.beginObject()
	key, size, feat, err := parseObjectFields(s, keySeg, sizeHdr, featHdr, buf)
	if err != nil {
		return out, feat, err
	}
	s.afterParse(&t)
	if s.testHookRequest != nil {
		s.testHookRequest()
	}
	tick := s.eng.NextTick()
	if s.retrainer != nil {
		s.retrainer.Observe(key, tick, feat)
	}
	if offer {
		out = s.eng.Offer(key, size, tick, feat)
	} else {
		out = s.eng.Lookup(key, size, tick, feat)
	}
	s.finishObject(t, key, tick, out, offer)
	return out, feat, nil
}

// Decision header values. Responses share these slices, so nothing may
// write through them.
var (
	hdrTrue  = []string{"true"}
	hdrFalse = []string{"false"}
)

func hdrBool(b bool) []string {
	if b {
		return hdrTrue
	}
	return hdrFalse
}

// handleObject serves both object routes for net/http: GET (and,
// through the mux, HEAD) runs the full lookup, answering 200 on a hit
// and 404 with the decision on a miss; PUT runs the offer and always
// answers 200 with the decision.
func (s *Server) handleObject(w http.ResponseWriter, r *http.Request) {
	offer := r.Method == http.MethodPut
	out, _, err := serveObject(s, offer, r.PathValue("key"), r.Header.Get("X-Ota-Size"), r.Header.Get("X-Ota-Feat"), nil)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	h := w.Header()
	objectHeaders(out, offer, func(name string, v bool) { h[name] = hdrBool(v) })
	code, body := objectStatus(out, offer)
	if code != http.StatusOK {
		w.WriteHeader(code)
	}
	if _, err := io.WriteString(w, body); err != nil {
		s.encodeErrors.Add(1)
	}
}

func (s *Server) handleSwapClassifier(w http.ResponseWriter, r *http.Request) {
	if !s.classified {
		http.Error(w, "engine has no classifier admission", http.StatusConflict)
		return
	}
	tree, err := cart.ReadTree(r.Body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if s.cfg.NumFeatures > 0 && tree.MaxFeature() >= s.cfg.NumFeatures {
		http.Error(w, fmt.Sprintf("tree references feature %d, server takes %d",
			tree.MaxFeature(), s.cfg.NumFeatures), http.StatusBadRequest)
		return
	}
	// One lock around the whole install: concurrent swap requests are
	// serialized, so every shard always ends on the same (last) model
	// instead of an interleaved mix.
	s.swapMu.Lock()
	installed := 0
	for _, adm := range s.admissions {
		if adm != nil {
			adm.SetClassifier(tree)
			installed++
		}
	}
	s.swapMu.Unlock()
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, map[string]int{
		"splits": tree.NumSplits(),
		"height": tree.Height(),
		"shards": installed,
	})
}

// AttachSnapshotter wires crash-safe state persistence into the admin
// surface: POST /admin/snapshot forces a snapshot write, and every
// write (periodic, admin, shutdown) is timed into the snapshot-save
// histogram on /metrics. Must be called before Serve.
func (s *Server) AttachSnapshotter(sn *Snapshotter) {
	s.snap = sn
	sn.SetObserver(s.clock.Now, s.snapSave)
}

// Snapshotter returns the attached snapshotter (nil if none).
func (s *Server) Snapshotter() *Snapshotter { return s.snap }

func (s *Server) handleSnapshot(w http.ResponseWriter, _ *http.Request) {
	if s.snap == nil {
		http.Error(w, "no snapshotter attached", http.StatusConflict)
		return
	}
	res, err := s.snap.WriteNow()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	s.writeJSON(w, res)
}

func (s *Server) handleRetrain(w http.ResponseWriter, _ *http.Request) {
	if s.retrainer == nil {
		http.Error(w, "no retrainer attached", http.StatusConflict)
		return
	}
	res := s.retrainer.RetrainNow()
	w.Header().Set("Content-Type", "application/json")
	if res.Err != "" {
		w.WriteHeader(http.StatusUnprocessableEntity)
	}
	s.writeJSON(w, res)
}
