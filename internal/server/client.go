package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"otacache/internal/faults"
	"otacache/internal/ml/cart"
)

// RetryConfig tunes the client's retry loop. A replay client that
// gives up after one TCP error turns every transient network blip into
// a gap in the measured workload, so object requests retry with
// exponential backoff and jitter — but only where a duplicate cannot
// corrupt server state (see Lookup vs Offer).
type RetryConfig struct {
	// MaxAttempts bounds tries per request, first included (0 = 3).
	MaxAttempts int
	// BaseBackoff is the delay before the first retry; each further
	// retry doubles it (0 = 5ms).
	BaseBackoff time.Duration
	// MaxBackoff caps the exponential growth (0 = 500ms).
	MaxBackoff time.Duration
	// AttemptTimeout bounds each individual attempt (0 = the client's
	// 30s timeout). The default transport enforces it as a connection
	// deadline; a transport set with SetTransport owns its own timeouts.
	AttemptTimeout time.Duration
	// Budget caps total retries across the client's lifetime: once
	// spent, requests fail fast on their first error instead of piling
	// backoff on an outage (0 = unlimited). A replay run reports budget
	// exhaustion through its error counters rather than stalling.
	Budget int64
	// Seed drives jitter; a fixed seed makes backoff sequences
	// reproducible in tests (0 = 1).
	Seed uint64
}

func (c *RetryConfig) normalize() {
	if c.MaxAttempts <= 0 {
		c.MaxAttempts = 3
	}
	if c.BaseBackoff <= 0 {
		c.BaseBackoff = 5 * time.Millisecond
	}
	if c.MaxBackoff <= 0 {
		c.MaxBackoff = 500 * time.Millisecond
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
}

// clientTimeout bounds one request on the default transport when no
// AttemptTimeout is set.
const clientTimeout = 30 * time.Second

// Client is a typed client for the otacached wire protocol.
type Client struct {
	// base is the daemon's URL; control-plane requests append a path to
	// it. url is base parsed once, the template of every object request
	// (nil when base does not parse; urlErr says why).
	base   string
	url    *url.URL
	urlErr error
	// rt carries every request: the default connPool, or what
	// SetTransport installed.
	rt    http.RoundTripper
	retry RetryConfig
	// clock paces backoff, readiness polling, and replay (latency
	// measurement and QPS pacing); tests substitute a faults.FakeClock.
	clock faults.Clock

	// rng drives backoff jitter (guarded: workers share the client).
	rngMu sync.Mutex
	rng   *rand.Rand

	retriesUsed atomic.Int64
}

// NewClient targets a daemon at base (e.g. "http://127.0.0.1:8344").
// workers sizes the connection pool for concurrent use (<= 0 picks a
// default): up to 2×workers idle keep-alive connections are kept. The
// default transport speaks plain HTTP/1.1 on the caller's goroutine;
// another scheme needs SetTransport. The default retry policy (3
// attempts, jittered exponential backoff) applies; SetRetry overrides
// it.
func NewClient(base string, workers int) *Client {
	if workers <= 0 {
		workers = 8
	}
	c := &Client{base: strings.TrimRight(base, "/"), clock: faults.WallClock{}}
	// A base that does not parse fails every request: object requests
	// return urlErr, control requests fail in http.NewRequest.
	if c.url, c.urlErr = url.Parse(c.base); c.urlErr == nil {
		p := newConnPool(c.url, workers*2, clientTimeout)
		p.target = c.objectTarget()
		c.rt = p
	}
	c.SetRetry(RetryConfig{})
	return c
}

// SetRetry replaces the retry policy. On the default transport
// AttemptTimeout becomes the per-request connection deadline. Not safe
// to call concurrently with in-flight requests; configure before use.
func (c *Client) SetRetry(cfg RetryConfig) {
	cfg.normalize()
	c.retry = cfg
	c.rng = rand.New(rand.NewSource(int64(cfg.Seed)))
	if p, ok := c.rt.(*connPool); ok {
		p.timeout = clientTimeout
		if cfg.AttemptTimeout > 0 {
			p.timeout = cfg.AttemptTimeout
		}
	}
}

// SetTransport replaces the transport every request goes through — the
// seam a fault injector (internal/faults.Transport) wraps in tests. The
// replacement owns its own timeouts: the client's 30s bound and
// AttemptTimeout are deadlines of the default transport only.
// Configure before use.
func (c *Client) SetTransport(rt http.RoundTripper) { c.rt = rt }

// SetClock replaces the client's clock — a faults.FakeClock turns
// backoff and pacing delays into no-ops in tests. Configure before use.
func (c *Client) SetClock(clk faults.Clock) { c.clock = clk }

// RetriesUsed returns how many retries (attempts beyond each request's
// first) this client has spent.
func (c *Client) RetriesUsed() int64 { return c.retriesUsed.Load() }

// takeRetryToken spends one unit of the lifetime retry budget.
func (c *Client) takeRetryToken() bool {
	if c.retry.Budget > 0 && c.retriesUsed.Load() >= c.retry.Budget {
		return false
	}
	c.retriesUsed.Add(1)
	return true
}

// backoff sleeps before retry attempt a (1-based) with full jitter:
// a uniform draw from (0, base*2^(a-1)], capped at MaxBackoff. Jitter
// decorrelates a worker fleet hammering a recovering daemon.
func (c *Client) backoff(a int) {
	d := c.retry.BaseBackoff << (a - 1)
	if d > c.retry.MaxBackoff || d <= 0 {
		d = c.retry.MaxBackoff
	}
	c.rngMu.Lock()
	f := c.rng.Float64()
	c.rngMu.Unlock()
	c.clock.Sleep(time.Duration((0.1 + 0.9*f) * float64(d)))
}

// connectionError reports an error that occurred before the request
// could have reached the server (dial/refused/reset during connect) —
// the only class where retrying a non-idempotent request is safe.
func connectionError(err error) bool {
	var opErr *net.OpError
	if errors.As(err, &opErr) {
		return opErr.Op == "dial"
	}
	return false
}

// LookupResult is one GET /object outcome.
type LookupResult struct {
	Hit              bool
	Admitted         bool
	Written          bool
	Rectified        bool
	PredictedOneTime bool
	// Degraded reports the admission decision came from the circuit
	// breaker's fallback, not the primary classifier.
	Degraded bool
}

// appendFeat appends the X-Ota-Feat encoding of feat to dst: shortest
// round-trip decimal floats, comma-separated.
func appendFeat(dst []byte, feat []float64) []byte {
	for i, f := range feat {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = strconv.AppendFloat(dst, f, 'g', -1, 64)
	}
	return dst
}

func encodeFeat(feat []float64) string { return string(appendFeat(nil, feat)) }

// newObjectRequest builds one object request from the parsed base: the
// key appended to its path, the header keys already canonical.
func (c *Client) newObjectRequest(method string, key uint64, size int64, feat []float64) (*http.Request, error) {
	if c.urlErr != nil {
		return nil, c.urlErr
	}
	u := *c.url
	var buf [128]byte
	path := strconv.AppendUint(append(append(buf[:0], u.Path...), "/object/"...), key, 10)
	u.Path = string(path)
	if u.RawPath != "" {
		u.RawPath += u.Path[len(c.url.Path):]
	}
	h := http.Header{"X-Ota-Size": {strconv.FormatInt(size, 10)}}
	if len(feat) > 0 {
		h["X-Ota-Feat"] = []string{string(appendFeat(buf[:0], feat))}
	}
	return &http.Request{
		Method:     method,
		URL:        &u,
		Proto:      "HTTP/1.1",
		ProtoMajor: 1,
		ProtoMinor: 1,
		Header:     h,
		Host:       u.Host,
	}, nil
}

// objectTarget returns an object request's request-URI up to its key
// for the codec, or "" when the codec cannot write this base URL's
// object requests byte for byte as (*http.Request).Write does: the
// check renders one both ways.
func (c *Client) objectTarget() string {
	req, err := c.newObjectRequest(http.MethodGet, 0, 1, nil)
	if err != nil {
		return ""
	}
	target, ok := strings.CutSuffix(req.URL.RequestURI(), "/object/0")
	if !ok {
		return ""
	}
	target += "/object/"
	var want bytes.Buffer
	if req.Write(&want) != nil ||
		!bytes.Equal(want.Bytes(), appendObjectRequest(nil, http.MethodGet, target, c.url.Host, 0, 1, nil)) {
		return ""
	}
	return target
}

// roundTrip sends req through the client's transport, naming the
// request in a failure as http.Client does.
func (c *Client) roundTrip(req *http.Request) (*http.Response, error) {
	resp, err := c.rt.RoundTrip(req)
	if err != nil {
		return nil, &url.Error{Op: req.Method, URL: req.URL.String(), Err: err}
	}
	return resp, nil
}

// do sends one control-plane request: base plus path.
func (c *Client) do(method, path string, body io.Reader) (*http.Response, error) {
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	return c.roundTrip(req)
}

// objectRequest sends one object request: through the codec on the
// default transport, as an *http.Request on any other.
func (c *Client) objectRequest(method string, key uint64, size int64, feat []float64) (LookupResult, error) {
	if p, ok := c.rt.(*connPool); ok && p.target != "" {
		x := exchange{method: method, key: key, size: size, feat: feat}
		if err := p.run(&x); err != nil {
			return LookupResult{}, &url.Error{Op: method, URL: c.base + "/object/" + strconv.FormatUint(key, 10), Err: err}
		}
		return x.res, x.err
	}
	req, err := c.newObjectRequest(method, key, size, feat)
	if err != nil {
		return LookupResult{}, err
	}
	resp, err := c.roundTrip(req)
	if err != nil {
		return LookupResult{}, err
	}
	return decodeObject(resp)
}

// retryable5xx marks a decoded-but-failed attempt (HTTP 5xx) so the
// retry loop can distinguish it from protocol errors like 400s.
type retryable5xx struct{ err error }

func (e retryable5xx) Error() string { return e.err.Error() }
func (e retryable5xx) Unwrap() error { return e.err }

// doObject runs one object request through the retry loop. GETs are
// read-only and retry on any transport error or 5xx; PUTs (Offer)
// mutate the doorkeeper/history state, so a duplicate skews admission —
// they retry only on connection-level errors raised before the request
// could have reached the server.
func (c *Client) doObject(method string, key uint64, size int64, feat []float64) (LookupResult, error) {
	var lastErr error
	for attempt := 0; attempt < c.retry.MaxAttempts; attempt++ {
		if attempt > 0 {
			if !c.takeRetryToken() {
				return LookupResult{}, fmt.Errorf("retry budget exhausted: %w", lastErr)
			}
			c.backoff(attempt)
		}
		res, err := c.objectRequest(method, key, size, feat)
		if err == nil {
			return res, nil
		}
		lastErr = err
		retryable := method == http.MethodGet || connectionError(err)
		var r5 retryable5xx
		if errors.As(err, &r5) {
			retryable = method == http.MethodGet
			lastErr = r5.err
		}
		if !retryable {
			return LookupResult{}, err
		}
	}
	return LookupResult{}, fmt.Errorf("after %d attempts: %w", c.retry.MaxAttempts, lastErr)
}

func decodeObject(resp *http.Response) (LookupResult, error) {
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusNotFound {
		err := fmt.Errorf("server: %s", resp.Status)
		if resp.StatusCode >= 500 {
			return LookupResult{}, retryable5xx{err}
		}
		return LookupResult{}, err
	}
	h := resp.Header
	return LookupResult{
		Hit:              h.Get("X-Ota-Hit") == "true",
		Admitted:         h.Get("X-Ota-Admitted") == "true",
		Written:          h.Get("X-Ota-Written") == "true",
		Rectified:        h.Get("X-Ota-Rectified") == "true",
		PredictedOneTime: h.Get("X-Ota-Predicted-One-Time") == "true",
		Degraded:         h.Get("X-Ota-Degraded") == "true",
	}, nil
}

// Lookup runs the full pipeline for one object: GET /object/{key}.
// Idempotent on the wire (a repeated GET is just another access), so
// it retries on any transport error or 5xx response.
func (c *Client) Lookup(key uint64, size int64, feat []float64) (LookupResult, error) {
	return c.doObject(http.MethodGet, key, size, feat)
}

// Offer runs the admission-only path: PUT /object/{key}. An Offer
// mutates admission state (doorkeeper counts, history records), so it
// retries only on connection-level errors raised before the request
// reached the server; once a response — even a 5xx — proves the server
// saw the request, a duplicate would double-count the access.
func (c *Client) Offer(key uint64, size int64, feat []float64) (LookupResult, error) {
	return c.doObject(http.MethodPut, key, size, feat)
}

// Health probes /healthz (liveness: the process is up).
func (c *Client) Health() error {
	return c.probe("/healthz")
}

// Ready probes /readyz (readiness: the daemon will serve object
// traffic — snapshot restored, not draining).
func (c *Client) Ready() error {
	return c.probe("/readyz")
}

// WaitReady polls /readyz until the daemon reports ready or ctx
// expires, in which case the last probe error is returned.
func (c *Client) WaitReady(ctx context.Context, poll time.Duration) error {
	if poll <= 0 {
		poll = 50 * time.Millisecond
	}
	var lastErr error
	for {
		if lastErr = c.Ready(); lastErr == nil {
			return nil
		}
		select {
		case <-ctx.Done():
			return fmt.Errorf("daemon not ready: %w (last probe: %v)", ctx.Err(), lastErr)
		case <-c.afterCh(poll):
		}
	}
}

// afterCh is time.After through the client's clock: the returned
// channel fires once clock.Sleep(d) returns (immediately, under a
// FakeClock). The goroutine exits after at most d of real time.
func (c *Client) afterCh(d time.Duration) <-chan time.Time {
	ch := make(chan time.Time, 1)
	go func() {
		c.clock.Sleep(d)
		ch <- c.clock.Now()
	}()
	return ch
}

func (c *Client) probe(path string) error {
	resp, err := c.do(http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		//lint:allow errsink the error body is advisory; the status error below stands either way
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 256))
		return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// SwapClassifier hot-swaps the daemon's model: PUT /admin/classifier.
func (c *Client) SwapClassifier(tree *cart.Tree) error {
	var buf bytes.Buffer
	if _, err := tree.WriteTo(&buf); err != nil {
		return err
	}
	resp, err := c.do(http.MethodPut, "/admin/classifier", &buf)
	if err != nil {
		return err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		//lint:allow errsink the error body is advisory; the status error below stands either way
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("server: %s: %s", resp.Status, strings.TrimSpace(string(msg)))
	}
	return nil
}

// Retrain asks the daemon to train on its matured live samples now:
// POST /admin/retrain.
func (c *Client) Retrain() (*RetrainResult, error) {
	resp, err := c.do(http.MethodPost, "/admin/retrain", nil)
	if err != nil {
		return nil, err
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusUnprocessableEntity {
		return nil, fmt.Errorf("server: %s", resp.Status)
	}
	var res RetrainResult
	if err := json.NewDecoder(resp.Body).Decode(&res); err != nil {
		return nil, err
	}
	return &res, nil
}

// drain consumes and closes a response body so the connection returns
// to the keep-alive pool.
func drain(resp *http.Response) {
	//lint:allow errsink best-effort drain; a failed read only forfeits connection reuse
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	//lint:allow errsink read-side close after the drain; nothing left to account
	resp.Body.Close()
}
