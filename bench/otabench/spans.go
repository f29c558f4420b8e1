package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"
)

// spanKind names one layer boundary the decorators record.
type spanKind uint8

const (
	spClientLookup  spanKind = iota // server.Client.Lookup, the HTTP root
	spRoundTrip                     // http.RoundTripper under the client
	spHandler                       // srv.Handler() on the server side
	spNextTick                      // engine.Server.NextTick
	spEngineLookup                  // engine.Server.Lookup
	spRingRoute                     // ShardedEngine.ShardFor (cluster.Ring)
	spCacheGet                      // cache.Policy.Get
	spCacheAdmit                    // cache.Policy.Admit
	spCacheContains                 // cache.Policy.Contains called by the engine
	spFlashLiveness                 // cache.Policy.Contains called by the flash collector
	spDecide                        // core.Filter.Decide (breaker + admission)
	spPredict                       // mlcore.Classifier.Predict/Score
	spDevProgram                    // flash.Device.Program
	spDevRead                       // flash.Device.Read
	spDevErase                      // flash.Device.Erase
	numSpanKinds
)

var spanNames = [numSpanKinds]string{
	"server.client_lookup", "server.round_trip", "server.handler",
	"engine.next_tick", "engine.lookup", "cluster.ring_route",
	"cache.get", "cache.admit", "cache.contains", "flash.liveness",
	"core.decide", "cart.predict",
	"flash.device_program", "flash.device_read", "flash.device_erase",
}

// insideFlashStore marks the spans that run inside a flash.Store call.
// The store is a concrete type the engine calls directly, so it cannot
// be decorated; its own time comes from the flash.Observer hook instead.
// These spans are kept out of their parent's child time — the parent
// keeps the whole store call as self time, and layers.go moves it to the
// flash layer using the observer's totals.
var insideFlashStore = [numSpanKinds]bool{
	spFlashLiveness: true, spDevProgram: true, spDevRead: true, spDevErase: true,
}

// span is one recorded interval: {name, req, parent, start, end} plus
// its own id. Times are nanoseconds since the recorder was created.
type span struct {
	Kind   spanKind
	ID     int64
	Parent int64
	Req    int64
	Start  int64
	End    int64
}

// frame is an open span on the recorder's stack.
type frame struct {
	kind     spanKind
	id       int64
	start    int64
	child    int64 // time covered by closed direct children
	children int64
	desc     int64 // closed descendants, for the span-cost correction
}

// kindTotals aggregates every closed span of one kind, including the
// ones the raw ring has already overwritten.
type kindTotals struct {
	calls    int64
	total    int64 // Σ duration
	self     int64 // Σ (duration − covered child time)
	children int64 // Σ direct children
	desc     int64 // Σ descendants
}

// rawRingCap bounds the spans kept for the trace file. The aggregates
// cover every span; the file keeps the most recent ones.
const rawRingCap = 1 << 18

// recorder collects spans of one traced run. Exactly one request is in
// flight at a time (one client), so one stack of open spans is
// unambiguous: in process everything runs on the client's goroutine, and
// over HTTP the client blocks while the server goroutine handles the
// request. The mutex orders the hand-off between those goroutines.
type recorder struct {
	now func() int64
	on  atomic.Bool
	// reqMismatches counts server-side requests whose id header was not
	// the request in flight; any means two requests overlapped.
	reqMismatches atomic.Int64
	// containsSeen counts policy Contains calls inside the current
	// engine.lookup span, see beginContains.
	containsSeen atomic.Int64

	mu     sync.Mutex
	req    int64
	nextID int64
	stack  []frame
	agg    [numSpanKinds]kindTotals
	// rootTotal is Σ duration of spans closed with no parent: the
	// figure Σ self must reconcile with.
	rootTotal int64
	// livenessCalls counts every flash.liveness call, timed or not.
	livenessCalls int64
	ring          []span
	ringNext      int
	ringFull      bool

	// emptyDur and emptyCost are the measured duration and the full
	// wall cost of an empty span, see calibrate.
	emptyDur, emptyCost float64
}

func newRecorder() *recorder {
	epoch := time.Now()
	r := &recorder{
		now:   func() int64 { return int64(time.Since(epoch)) },
		stack: make([]frame, 0, 16),
		ring:  make([]span, rawRingCap),
	}
	r.calibrate()
	return r
}

// calibrate measures what recording itself costs: emptyDur is how long
// an empty span appears to last (the part of begin/end that falls
// between the two clock reads), emptyCost is the wall time one
// begin/end pair takes. layers.go subtracts them from the per-call
// means, so a 40 ns tree walk is not reported as 80 ns.
func (r *recorder) calibrate() {
	const n = 1 << 16
	r.on.Store(true)
	r.begin(spEngineLookup)
	t0 := r.now()
	for i := 0; i < n; i++ {
		r.begin(spCacheGet)
		r.end()
	}
	wall := r.now() - t0
	r.end()
	r.emptyDur = float64(r.agg[spCacheGet].total) / n
	r.emptyCost = float64(wall) / n
	r.on.Store(false)
	r.reset()
}

// reset forgets everything recorded so far.
func (r *recorder) reset() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.stack = r.stack[:0]
	r.agg = [numSpanKinds]kindTotals{}
	r.rootTotal, r.nextID, r.req, r.livenessCalls = 0, 0, 0, 0
	r.containsSeen.Store(0)
	r.ringNext, r.ringFull = 0, false
}

// setReq names the request the following spans belong to.
func (r *recorder) setReq(req int64) {
	r.mu.Lock()
	r.req = req
	r.mu.Unlock()
}

func (r *recorder) currentReq() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.req
}

// begin opens a span. The clock is read last, so the bookkeeping above
// it lands outside the span.
func (r *recorder) begin(kind spanKind) {
	r.mu.Lock()
	r.nextID++
	if kind == spEngineLookup {
		r.foldContains()
	}
	r.stack = append(r.stack, frame{kind: kind, id: r.nextID})
	r.stack[len(r.stack)-1].start = r.now()
	r.mu.Unlock()
}

// livenessEvery is the sampling period of flash.liveness spans. One
// collection pass probes every object in every sealed segment, a few
// hundred probes per lookup; timing each would make the traced store
// several times slower than the real one. They are all counted.
const livenessEvery = 16

// beginContains opens the span for a policy Contains call and reports
// whether it did. The engine asks Contains once per admitted miss (did
// the policy take it?), before it hands the object to the flash store;
// every later call within the same lookup is the store's collector using
// the policy as its liveness oracle, and of those one in livenessEvery
// is timed. The untimed ones cost one atomic add.
func (r *recorder) beginContains() bool {
	seen := r.containsSeen.Add(1) - 1
	kind := spCacheContains
	if seen > 0 {
		if seen%livenessEvery != 0 {
			return false
		}
		kind = spFlashLiveness
	}
	r.begin(kind)
	return true
}

// foldContains closes the Contains count of the lookup that just ended:
// all but its first call were liveness probes. Caller holds mu.
func (r *recorder) foldContains() {
	if n := r.containsSeen.Swap(0); n > 1 {
		r.livenessCalls += n - 1
	}
}

// end closes the innermost open span. The clock is read first.
func (r *recorder) end() {
	t := r.now()
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.stack[len(r.stack)-1]
	r.stack = r.stack[:len(r.stack)-1]
	dur := t - f.start
	a := &r.agg[f.kind]
	a.calls++
	a.total += dur
	a.self += dur - f.child
	a.children += f.children
	a.desc += f.desc
	var parent int64
	if n := len(r.stack); n > 0 {
		p := &r.stack[n-1]
		parent = p.id
		p.desc += f.desc + 1
		if !insideFlashStore[f.kind] {
			p.child += dur
			p.children++
		}
	} else {
		r.rootTotal += dur
	}
	r.ring[r.ringNext] = span{Kind: f.kind, ID: f.id, Parent: parent, Req: r.req, Start: f.start, End: t}
	r.ringNext++
	if r.ringNext == len(r.ring) {
		r.ringNext, r.ringFull = 0, true
	}
}

// totals returns the per-kind aggregates, Σ root duration, and the
// number of flash.liveness calls, timed or not.
func (r *recorder) totals() (agg [numSpanKinds]kindTotals, rootTotal, livenessCalls int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.foldContains()
	return r.agg, r.rootTotal, r.livenessCalls
}

// selfResidual is |Σ self − Σ root| ÷ Σ root: how far the layers' self
// times are from adding up to the traced requests. Spans nest by
// construction, so anything but ~0 means the harness lost or mismatched
// a span. Kinds inside flash.Store calls are skipped: their time was
// never taken out of the parent's self time.
func selfResidual(agg [numSpanKinds]kindTotals, rootTotal int64) float64 {
	if rootTotal == 0 {
		return 0
	}
	var sum int64
	for k := range agg {
		if insideFlashStore[k] {
			continue
		}
		sum += agg[k].self
	}
	d := sum - rootTotal
	if d < 0 {
		d = -d
	}
	return float64(d) / float64(rootTotal)
}

// spans returns the retained raw spans, oldest first.
func (r *recorder) spans() []span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if !r.ringFull {
		return append([]span(nil), r.ring[:r.ringNext]...)
	}
	out := make([]span, 0, len(r.ring))
	out = append(out, r.ring[r.ringNext:]...)
	return append(out, r.ring[:r.ringNext]...)
}

// writeSpans writes the retained spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	type line struct {
		Name   string `json:"name"`
		ID     int64  `json:"id"`
		Req    int64  `json:"req"`
		Parent int64  `json:"parent"`
		Start  int64  `json:"start"`
		End    int64  `json:"end"`
	}
	for _, s := range spans {
		if err := enc.Encode(line{spanNames[s.Kind], s.ID, s.Req, s.Parent, s.Start, s.End}); err != nil {
			f.Close()
			return fmt.Errorf("write %s: %w", path, err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}
