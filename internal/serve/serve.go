// Package serve is the long-running simulation service behind
// cmd/hyve-serve: an HTTP/JSON front end that accepts single
// (dataset, algorithm, configuration) points and sweep specs, routes
// every execution through the content-addressed cache.Scheduler (so a
// repeated point is a sub-millisecond hit and concurrent duplicates
// coalesce onto one execution), and streams results back — plain JSON
// for a point, NDJSON events for a sweep.
//
// The service is built to survive heavy concurrent traffic:
//
//   - token-bucket admission control (429 + Retry-After when the point
//     budget is spent; a sweep spends one token per point),
//   - a per-dataset circuit breaker around expensive points (trips on
//     consecutive errors/timeouts, half-open probes after a cooldown,
//     503 + Retry-After while open),
//   - backpressure from a bounded execution-slot pool shared across all
//     requests (internal/parallel fans each sweep, a global semaphore
//     bounds total simulation concurrency),
//   - per-request deadlines, snowflake run ids stamped into responses
//     and spans, and graceful drain: a draining server stops admitting,
//     finishes every in-flight request, and only then lets the process
//     exit.
//
// Served bytes are the cache-hit-identity invariant extended to the
// wire: a point response body is byte-identical to cache.EncodeResult
// of a direct core.Simulate of the same point.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/parallel"
	"repro/internal/point"
)

// Metric names the service reports through the process-global Recorder
// (exposed as hyve_serve_* Prometheus families, see EXPERIMENTS.md).
const (
	MetricAdmitted        = "serve.requests.admitted"
	MetricRejected        = "serve.requests.rejected"
	MetricBreakerRejected = "serve.breaker.rejected"
	MetricBreakerOpen     = "serve.breaker.open"
	MetricInflight        = "serve.inflight"
	MetricRequestSec      = "serve.request.seconds"
	MetricPointsServed    = "serve.points.served"
	MetricDrains          = "serve.drains"
)

// RegisterMetrics announces every serve counter at zero so a scrape
// right after startup sees the full family set.
func RegisterMetrics(rec obs.Recorder) {
	for _, name := range []string{
		MetricAdmitted, MetricRejected, MetricBreakerRejected,
		MetricPointsServed, MetricDrains,
	} {
		rec.Count(name, 0)
	}
	rec.Count(MetricInflight, 0)
	rec.Gauge(MetricBreakerOpen, 0)
}

// Config tunes a Server. The zero value is serviceable: private
// in-memory cache, 50 points/s with burst 100, breaker at 5 consecutive
// failures / 30s cooldown, 2-minute request deadline, GOMAXPROCS
// execution slots.
type Config struct {
	// Sched is the scheduler every execution is submitted through. Nil
	// means no cache: every point executes. Hand in
	// cache.New(cache.Config{Dir: ...}) to reuse results, and to persist
	// them across restarts when Dir is set.
	Sched *cache.Scheduler
	// Workers bounds concurrent simulation executions across ALL
	// requests (0 = GOMAXPROCS) — the service's backpressure: requests
	// beyond it queue on the slot pool instead of oversubscribing the
	// host.
	Workers int
	// Rate and Burst shape the token-bucket admission controller
	// (points per second and bucket capacity).
	Rate  float64
	Burst int
	// BreakerFailures consecutive errors/timeouts on one dataset trip
	// its circuit breaker open for BreakerCooldown.
	BreakerFailures int
	BreakerCooldown time.Duration
	// RequestTimeout is the per-request deadline (a client may shorten
	// it per request via timeout_ms, never lengthen it).
	RequestTimeout time.Duration
	// MaxSweepPoints rejects sweep specs whose cross product exceeds it.
	MaxSweepPoints int
	// MaxInflight caps concurrently admitted requests; excess gets 429.
	MaxInflight int
	// Node is the snowflake node id stamped into run ids.
	Node uint64
	// Log receives request-level logfmt lines (nil = quiet).
	Log *obs.Logger
}

// Defaults for the zero Config.
const (
	DefaultRequestTimeout = 2 * time.Minute
	DefaultMaxSweepPoints = 4096
	DefaultMaxInflight    = 64
)

// Server is the simulation service. Create with New, mount Handler on
// an http.Server, and call Drain before exiting.
type Server struct {
	cfg      Config
	sched    *cache.Scheduler
	limiter  *Limiter
	breakers *breakerSet
	ids      *Snowflake
	sem      chan struct{} // global execution slots

	inflight  sync.WaitGroup
	inflightN atomic.Int64
	draining  atomic.Bool

	// simulate is the execution seam: cache.Scheduler.SimulateCtx in
	// production, a gated fake in the drain/cancellation tests.
	simulate func(ctx context.Context, cfg core.Config, w core.Workload) (*core.Result, error)

	log *obs.Logger
}

// New builds a Server from cfg, filling zero fields with the defaults
// documented on Config.
func New(cfg Config) *Server {
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = DefaultRequestTimeout
	}
	if cfg.MaxSweepPoints <= 0 {
		cfg.MaxSweepPoints = DefaultMaxSweepPoints
	}
	if cfg.MaxInflight <= 0 {
		cfg.MaxInflight = DefaultMaxInflight
	}
	s := &Server{
		cfg:      cfg,
		sched:    cfg.Sched,
		limiter:  NewLimiter(cfg.Rate, cfg.Burst),
		breakers: newBreakerSet(cfg.BreakerFailures, cfg.BreakerCooldown),
		ids:      NewSnowflake(cfg.Node),
		sem:      make(chan struct{}, parallel.Workers(cfg.Workers)),
		log:      cfg.Log,
	}
	s.simulate = s.sched.SimulateCtx
	return s
}

// Handler returns the service mux: POST (or GET with query parameters)
// /point and /sweep, plus GET /healthz.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/point", s.handlePoint)
	mux.HandleFunc("/sweep", s.handleSweep)
	mux.HandleFunc("/healthz", s.handleHealthz)
	return mux
}

// Drain puts the server into draining mode — every subsequent request
// is rejected with 503 — and waits for in-flight requests to finish,
// bounded by ctx. On a clean drain every admitted request ran to
// completion: nothing in flight is ever dropped.
func (s *Server) Drain(ctx context.Context) error {
	if s.draining.CompareAndSwap(false, true) {
		obs.Default().Count(MetricDrains, 1)
		if s.log != nil {
			s.log.Info("serve.draining", "inflight", s.inflightN.Load())
		}
	}
	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		// A drain that is effectively complete (the last request just
		// unwound) should not report failure because its context died in
		// the same instant: give the waiter one scheduling grace.
		select {
		case <-done:
			return nil
		case <-time.After(10 * time.Millisecond):
			return fmt.Errorf("serve: drain incomplete, %d request(s) still in flight: %w",
				s.inflightN.Load(), ctx.Err())
		}
	}
}

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Inflight reports the number of admitted, unfinished requests.
func (s *Server) Inflight() int64 { return s.inflightN.Load() }

// --- request plumbing ----------------------------------------------------

// apiError is the JSON error body every non-2xx response carries.
type apiError struct {
	Error        string `json:"error"`
	RetryAfterMS int64  `json:"retry_after_ms,omitempty"`
	RunID        string `json:"run_id,omitempty"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	_ = enc.Encode(v)
}

// reject writes an error response; a positive retryAfter adds the
// Retry-After header (whole seconds, rounded up, at least 1).
func reject(w http.ResponseWriter, code int, retryAfter time.Duration, msg, runID string) {
	if retryAfter > 0 {
		secs := int64(math.Ceil(retryAfter.Seconds()))
		if secs < 1 {
			secs = 1
		}
		w.Header().Set("Retry-After", fmt.Sprintf("%d", secs))
	}
	writeJSON(w, code, apiError{Error: msg, RetryAfterMS: retryAfter.Milliseconds(), RunID: runID})
}

// admit runs the shared admission pipeline for a request of n points:
// drain check, inflight cap, token bucket. On success the request is
// registered in flight and the returned release must be called exactly
// once when it finishes.
func (s *Server) admit(w http.ResponseWriter, runID string, n int) (release func(), ok bool) {
	rec := obs.Default()
	if s.draining.Load() {
		w.Header().Set("Connection", "close")
		reject(w, http.StatusServiceUnavailable, 0, "draining: not accepting new work", runID)
		return nil, false
	}
	if s.inflightN.Load() >= int64(s.cfg.MaxInflight) {
		rec.Count(MetricRejected, 1)
		reject(w, http.StatusTooManyRequests, time.Second,
			fmt.Sprintf("at capacity: %d requests in flight", s.cfg.MaxInflight), runID)
		return nil, false
	}
	if allowed, retryAfter := s.limiter.AllowN(n); !allowed {
		rec.Count(MetricRejected, 1)
		reject(w, http.StatusTooManyRequests, retryAfter,
			fmt.Sprintf("rate limited: %d point(s) exceed the admission budget", n), runID)
		return nil, false
	}
	rec.Count(MetricAdmitted, 1)
	rec.Count(MetricInflight, 1)
	s.inflight.Add(1)
	s.inflightN.Add(1)
	start := time.Now()
	return func() {
		obs.ObserveSince(rec, MetricRequestSec, start)
		rec.Count(MetricInflight, -1)
		s.inflightN.Add(-1)
		s.inflight.Done()
	}, true
}

// requestCtx derives the request's execution context: the server
// deadline, optionally shortened by the client's timeout_ms.
func (s *Server) requestCtx(r *http.Request, timeoutMS int64) (context.Context, context.CancelFunc) {
	d := s.cfg.RequestTimeout
	if timeoutMS > 0 {
		if c := time.Duration(timeoutMS) * time.Millisecond; c < d {
			d = c
		}
	}
	return context.WithTimeout(r.Context(), d)
}

// errBreakerOpen marks a rejection by an open circuit breaker.
type errBreakerOpen struct {
	dataset    string
	retryAfter time.Duration
}

func (e errBreakerOpen) Error() string {
	return fmt.Sprintf("circuit breaker open for dataset %s (retry in %s)", e.dataset, e.retryAfter.Round(time.Millisecond))
}

// execPoint runs one parsed spec under the breaker and the global slot
// pool and returns the result and its content digest. The workload is
// assembled here, inside the slot, not at parse time.
func (s *Server) execPoint(ctx context.Context, spec point.Spec) (*core.Result, string, error) {
	rec := obs.Default()
	br := s.breakers.get(spec.Dataset)
	allowed, retryAfter := br.Allow()
	if !allowed {
		rec.Count(MetricBreakerRejected, 1)
		return nil, "", errBreakerOpen{dataset: spec.Dataset, retryAfter: retryAfter}
	}
	outcome := func(err error) {
		// Client cancellation says nothing about the backend's health;
		// only executions the service itself failed or timed out count.
		if errors.Is(err, context.Canceled) {
			err = nil
		}
		br.Record(err)
		rec.Gauge(MetricBreakerOpen, float64(s.breakers.openCount()))
	}

	// One global slot per executing simulation: the backpressure that
	// keeps a burst of requests from oversubscribing the host.
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		outcome(ctx.Err())
		return nil, "", ctx.Err()
	}
	defer func() { <-s.sem }()

	cfg, w, err := spec.Resolve()
	if err != nil {
		outcome(err)
		return nil, "", err
	}
	var digest string
	if d, derr := cache.PointDigest(cfg, w); derr == nil {
		digest = d.String()
	}
	res, err := s.simulate(ctx, cfg, w)
	outcome(err)
	if err != nil {
		return nil, digest, err
	}
	rec.Count(MetricPointsServed, 1)
	return res, digest, nil
}

// errStatus maps an execution error to its HTTP status.
func errStatus(err error) int {
	var open errBreakerOpen
	switch {
	case errors.As(err, &open):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, context.Canceled):
		return 499 // client closed request (nginx convention)
	default:
		return http.StatusInternalServerError
	}
}

// --- /point --------------------------------------------------------------

// PointRequest is the /point request schema (POST body, or the same
// fields as query parameters on GET).
type PointRequest struct {
	Dataset string `json:"dataset"`
	Algo    string `json:"algo"`
	Config  string `json:"config"`
	// SRAMMB overrides the per-PU on-chip vertex memory (MB) for
	// configurations that have one; 0 keeps the configuration default,
	// and a negative or overflowing value is rejected (point.CheckSRAM).
	SRAMMB int64 `json:"sram_mb,omitempty"`
	// TimeoutMS shortens the server's per-request deadline.
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

func (s *Server) handlePoint(w http.ResponseWriter, r *http.Request) {
	runID := s.ids.NextString()
	w.Header().Set("X-Hyve-Run-Id", runID)
	var req PointRequest
	if !decodeRequest(w, r, runID, &req, func(q url.Values) error {
		req.Dataset, req.Algo, req.Config = q.Get("dataset"), q.Get("algo"), q.Get("config")
		return queryNumbers(q, &req.SRAMMB, &req.TimeoutMS)
	}) {
		return
	}
	spec, err := point.Spec{Dataset: req.Dataset, Algo: req.Algo, Config: req.Config, SRAMMB: req.SRAMMB}.Parse()
	if err != nil {
		reject(w, http.StatusBadRequest, 0, err.Error(), runID)
		return
	}
	release, ok := s.admit(w, runID, 1)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	ctx, sp := obs.StartSpan(ctx, "request /point", "run_id", runID,
		"dataset", req.Dataset, "algo", req.Algo, "config", req.Config)
	defer sp.End()

	res, digest, err := s.execPoint(ctx, spec)
	if err != nil {
		sp.SetAttr("error", err.Error())
		s.logRequest("point", runID, r, err)
		reject(w, errStatus(err), retryAfterOf(err), err.Error(), runID)
		return
	}
	payload, err := cache.EncodeResult(res)
	if err != nil {
		reject(w, http.StatusInternalServerError, 0, err.Error(), runID)
		return
	}
	// The body is exactly the canonical result document — byte-identical
	// to cache.EncodeResult(core.Simulate(point)) — so identity survives
	// the wire; run id and digest ride in headers, never in the bytes.
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Hyve-Point-Digest", digest)
	w.Header().Set("X-Hyve-Result-Schema", cache.ResultSchema)
	_, _ = w.Write(payload)
	s.logRequest("point", runID, r, nil)
}

// retryAfterOf extracts the client back-off hint carried by breaker
// rejections (zero otherwise).
func retryAfterOf(err error) time.Duration {
	var open errBreakerOpen
	if errors.As(err, &open) {
		return open.retryAfter
	}
	return 0
}

// decodeRequest fills req from a POST JSON body, or on GET through
// fromQuery from the query parameters, rejecting anything else.
func decodeRequest(w http.ResponseWriter, r *http.Request, runID string, req any, fromQuery func(url.Values) error) bool {
	var err error
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err = dec.Decode(req); err != nil {
			err = fmt.Errorf("invalid request body: %w", err)
		}
	case http.MethodGet:
		err = fromQuery(r.URL.Query())
	default:
		w.Header().Set("Allow", "GET, POST")
		reject(w, http.StatusMethodNotAllowed, 0, "use GET with query parameters or POST with a JSON body", runID)
		return false
	}
	if err != nil {
		reject(w, http.StatusBadRequest, 0, err.Error(), runID)
		return false
	}
	return true
}

// queryNumbers parses the optional sram_mb and timeout_ms query
// parameters both endpoints take; an absent one leaves its field alone.
func queryNumbers(q url.Values, sramMB, timeoutMS *int64) error {
	for _, f := range [...]struct {
		key string
		dst *int64
	}{{"sram_mb", sramMB}, {"timeout_ms", timeoutMS}} {
		v := q.Get(f.key)
		if v == "" {
			continue
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			return fmt.Errorf("invalid %s %q: want a base-10 integer", f.key, v)
		}
		*f.dst = n
	}
	return nil
}

// --- /sweep --------------------------------------------------------------

// SweepRequest is the /sweep request schema: the cross product of the
// three lists, dataset-major then algorithm then configuration — the
// same order hyve-sim sweeps (point.Sweep fixes it).
type SweepRequest struct {
	point.Sweep
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
}

// SweepEvent is one NDJSON line of a /sweep response stream.
type SweepEvent struct {
	// Event is "start", "point", "error", or "done".
	Event string `json:"event"`
	RunID string `json:"run_id,omitempty"`
	// Points (start) is the sweep size; Index (point/error) the point's
	// position in dataset-major order.
	Points  int    `json:"points,omitempty"`
	Index   *int   `json:"index,omitempty"`
	Dataset string `json:"dataset,omitempty"`
	Algo    string `json:"algo,omitempty"`
	Config  string `json:"config,omitempty"`
	Digest  string `json:"digest,omitempty"`
	// Result (point) is the canonical hyve/result/v1 document.
	Result json.RawMessage `json:"result,omitempty"`
	Error  string          `json:"error,omitempty"`
	// Completed/Errors/ElapsedMS summarize the run on "done".
	Completed int   `json:"completed,omitempty"`
	Errors    int   `json:"errors,omitempty"`
	ElapsedMS int64 `json:"elapsed_ms,omitempty"`
	// Aborted marks a "done" event for a sweep cut short by the request
	// deadline or a client disconnect; undispatched points never ran.
	Aborted bool `json:"aborted,omitempty"`
}

func (s *Server) handleSweep(w http.ResponseWriter, r *http.Request) {
	runID := s.ids.NextString()
	w.Header().Set("X-Hyve-Run-Id", runID)
	var req SweepRequest
	if !decodeRequest(w, r, runID, &req, func(q url.Values) error {
		req.Datasets = point.SplitList(q.Get("datasets"))
		req.Algos = point.SplitList(q.Get("algos"))
		req.Configs = point.SplitList(q.Get("configs"))
		return queryNumbers(q, &req.SRAMMB, &req.TimeoutMS)
	}) {
		return
	}
	n := req.Len()
	if n > s.cfg.MaxSweepPoints {
		reject(w, http.StatusBadRequest, 0,
			fmt.Sprintf("sweep of %d points exceeds the %d-point limit", n, s.cfg.MaxSweepPoints), runID)
		return
	}
	specs, err := req.Specs()
	if err != nil {
		reject(w, http.StatusBadRequest, 0, err.Error(), runID)
		return
	}
	release, ok := s.admit(w, runID, n)
	if !ok {
		return
	}
	defer release()

	ctx, cancel := s.requestCtx(r, req.TimeoutMS)
	defer cancel()
	ctx, sp := obs.StartSpan(ctx, "request /sweep", "run_id", runID, "points", fmt.Sprint(n))
	defer sp.End()

	w.Header().Set("Content-Type", "application/x-ndjson")
	enc := json.NewEncoder(w)
	flusher, _ := w.(http.Flusher)
	emit := func(ev SweepEvent) {
		_ = enc.Encode(ev)
		if flusher != nil {
			flusher.Flush()
		}
	}
	start := time.Now()
	emit(SweepEvent{Event: "start", RunID: runID, Points: n})

	// Points fan across the bounded pool; the stream emits them in
	// dataset-major order as soon as each index (and all before it) has
	// finished, so the result sequence is deterministic while progress
	// still streams during the run.
	results := make([]*core.Result, n)
	digests := make([]string, n)
	errs := make([]error, n)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	poolErr := make(chan error, 1)
	go func() {
		poolErr <- parallel.ForEachCtx(ctx, cap(s.sem), n, parallel.Options{}, func(i int) error {
			results[i], digests[i], errs[i] = s.execPoint(ctx, specs[i])
			close(done[i])
			return nil // per-point failures stream as events, they never kill the sweep
		})
	}()

	completed, failed := 0, 0
	aborted := false
emitLoop:
	for i := 0; i < n; i++ {
		select {
		case <-done[i]:
		case <-ctx.Done():
			aborted = true
			break emitLoop
		}
		idx := i
		p, _ := req.At(i) // the coordinate as requested, before Parse
		ev := SweepEvent{
			RunID: runID, Index: &idx,
			Dataset: p.Dataset, Algo: p.Algo, Config: p.Config,
			Digest: digests[i],
		}
		if errs[i] != nil {
			ev.Event, ev.Error = "error", errs[i].Error()
			failed++
		} else {
			payload, err := cache.EncodeResult(results[i])
			if err != nil {
				ev.Event, ev.Error = "error", err.Error()
				failed++
			} else {
				ev.Event = "point"
				ev.Result = json.RawMessage(payload)
				completed++
			}
		}
		emit(ev)
	}
	// Wait for in-flight points even on an abort: the pool never
	// abandons a claimed point, and drain accounting (the surrounding
	// release) must not fire while simulations still run.
	<-poolErr
	emit(SweepEvent{
		Event: "done", RunID: runID,
		Completed: completed, Errors: failed,
		ElapsedMS: time.Since(start).Milliseconds(),
		Aborted:   aborted,
	})
	if aborted {
		sp.SetAttr("aborted", "true")
	}
	s.logRequest("sweep", runID, r, ctx.Err())
}

// --- /healthz ------------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := "ok"
	code := http.StatusOK
	if s.draining.Load() {
		status, code = "draining", http.StatusServiceUnavailable
	}
	writeJSON(w, code, map[string]any{
		"status":   status,
		"inflight": s.inflightN.Load(),
	})
}

func (s *Server) logRequest(kind, runID string, r *http.Request, err error) {
	if s.log == nil {
		return
	}
	if err != nil {
		s.log.Warn("serve.request", "kind", kind, "run_id", runID, "remote", r.RemoteAddr, "err", err)
		return
	}
	s.log.Debug("serve.request", "kind", kind, "run_id", runID, "remote", r.RemoteAddr)
}
