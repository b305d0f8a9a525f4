// Package serve exposes the simulator as a concurrent HTTP JSON
// service: run requests are executed on a bounded worker pool behind a
// bounded queue (load beyond the queue is shed with 429), every job
// carries a deadline that the engine honors at epoch boundaries, and
// completed runs land in a seed-keyed LRU cache so repeated identical
// requests never re-simulate.
//
// Endpoints:
//
//	GET/POST /v1/run               run one scenario, JSON summary
//	POST     /v1/runs              start a streamed run, 202 + run status
//	GET      /v1/runs              list streamed runs (live and retained)
//	GET      /v1/runs/{id}         one streamed run's status
//	GET      /v1/runs/{id}/stream  follow or replay it (SSE or NDJSON)
//	GET      /v1/replay/{name}     replay a stored trace (with a trace dir)
//	POST     /v1/experiment        run one experiment table, text output
//	GET      /healthz              liveness + build identity
//	GET      /metrics              queue/worker/cache/latency snapshot (JSON),
//	                               or Prometheus text when Accept: text/plain
//
// Every run has one lifecycle, whichever endpoint starts it: a run
// record in one registry (queued → running → done/failed), one job on
// the pool, and one settle step on the worker that counts the job,
// caches its summary and retains or forgets the run. Only /v1/runs runs
// carry a stream hub.
//
// DebugHandler serves a second, operator-only handler (pprof and
// /debug/runs) intended for a loopback listener.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"luxvis/internal/baseline"
	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/exp"
	"luxvis/internal/model"
	"luxvis/internal/obs"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
	"luxvis/internal/stream"
	"luxvis/internal/version"
)

// Options configures a Server. The zero value is usable: every field
// has a default.
type Options struct {
	// Workers is the number of concurrent simulation workers
	// (default runtime.NumCPU()).
	Workers int
	// QueueDepth bounds the number of jobs waiting for a worker;
	// submissions beyond it are shed with 429 (default 64).
	QueueDepth int
	// CacheSize is the LRU result-cache capacity in entries
	// (default 512).
	CacheSize int
	// DefaultTimeout caps a job's run time when the request does not
	// set timeoutMs (default 2 minutes).
	DefaultTimeout time.Duration
	// MaxN rejects run requests above this swarm size (default 16384).
	MaxN int
	// StreamHistory is the per-run stream hub history-ring capacity:
	// how far back Last-Event-ID resume (and finished-run replay) can
	// reach (default stream.DefaultHistory).
	StreamHistory int
	// StreamRetain bounds how many finished streamable runs are kept
	// for replay before the oldest is forgotten (default 64).
	StreamRetain int
	// TraceDir, when set, enables GET /v1/replay/{name}: stored trace
	// files under this directory are served as timed streams.
	TraceDir string
}

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.NumCPU()
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheSize <= 0 {
		o.CacheSize = 512
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 2 * time.Minute
	}
	if o.MaxN <= 0 {
		o.MaxN = 16384
	}
	if o.StreamRetain <= 0 {
		o.StreamRetain = 64
	}
	return o
}

// Server runs simulations over a bounded worker pool and serves them
// over HTTP. Create with New, mount Handler, stop with Close.
type Server struct {
	opt     Options
	queue   chan *job
	wg      sync.WaitGroup
	cache   *lru
	metrics *serverMetrics
	totals  *obs.EngineTotals
	runs    *registry
	// streamCtr aggregates hub/subscriber accounting across every
	// streamable run — the luxvis_stream_* families.
	streamCtr *stream.Counters
	started   time.Time

	mu sync.Mutex
	// closed is guarded by mu: submissions and Close race on the queue
	// channel, and a send on a closed channel panics, so both sides
	// agree under the lock before touching it.
	closed bool
}

// job is one queued unit of work: an engine run or an experiment. The
// worker fills res/err and settle closes done; the close is the
// happens-before edge that makes the fields safe to read on the handler
// side.
type job struct {
	ctx    context.Context
	cancel context.CancelFunc
	body   func(context.Context) (*RunSummary, error)
	key    string // cache key; "" disables caching (experiments)
	run    *run   // registry record; nil for experiments
	res    *RunSummary
	err    error
	done   chan struct{}
}

// newJob returns a job for body whose context ends with parent or after
// timeoutMs (Options.DefaultTimeout when 0), whichever comes first.
func (s *Server) newJob(parent context.Context, timeoutMs int, key string, r *run,
	body func(context.Context) (*RunSummary, error)) *job {
	timeout := s.opt.DefaultTimeout
	if timeoutMs > 0 {
		timeout = time.Duration(timeoutMs) * time.Millisecond
	}
	ctx, cancel := context.WithTimeout(parent, timeout)
	return &job{ctx: ctx, cancel: cancel, body: body, key: key, run: r, done: make(chan struct{})}
}

// New starts a Server with opt.Workers workers already running.
func New(opt Options) *Server {
	opt = opt.withDefaults()
	s := &Server{
		opt:       opt,
		queue:     make(chan *job, opt.QueueDepth),
		cache:     newLRU(opt.CacheSize),
		metrics:   newServerMetrics(),
		totals:    obs.NewEngineTotals(),
		runs:      newRegistry(opt.StreamRetain),
		streamCtr: &stream.Counters{},
		started:   time.Now(),
	}
	s.wg.Add(opt.Workers)
	for i := 0; i < opt.Workers; i++ {
		go s.worker()
	}
	return s
}

func (s *Server) worker() {
	defer s.wg.Done()
	for j := range s.queue {
		// A job whose deadline already passed while queued is dead on
		// arrival: don't burn a worker on it.
		if j.err = j.ctx.Err(); j.err != nil {
			s.settle(j)
			continue
		}
		s.metrics.workerBusy(+1)
		j.res, j.err = j.body(j.ctx)
		s.settle(j)
		s.metrics.workerBusy(-1)
	}
}

// settle is an accepted job's one terminal step, taken on its worker: it
// counts the outcome exactly once, caches a run's summary, settles the
// run's registry record, wakes the waiting handler and cancels the
// job's context. done closes before the cancel, so a handler that sees
// the context end can tell a settled job from an expired one (await).
func (s *Server) settle(j *job) {
	switch {
	case j.err == nil:
		s.metrics.jobCompleted()
		if j.key != "" {
			// Cache even when the waiting handler has already given
			// up: the next identical request then hits.
			s.cache.put(j.key, j.res)
		}
	case isTimeout(j.err):
		s.metrics.jobTimedOut()
	default:
		s.metrics.jobFailed()
	}
	if j.run != nil {
		s.runs.settle(j.run, j.res, j.err, true)
	}
	close(j.done)
	j.cancel()
}

func isTimeout(err error) bool {
	return errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)
}

var (
	errClosed = errors.New("serve: server is shutting down")
	errFull   = errors.New("serve: job queue is full")
)

// submit enqueues j without blocking — a full queue is load to shed, not
// to absorb — and counts it accepted or rejected. A rejected job is
// never settled: its context is released and its run forgotten here.
func (s *Server) submit(j *job) error {
	err := errClosed
	s.mu.Lock()
	if !s.closed {
		select {
		// The send can never race Close's close(s.queue): both run under
		// s.mu, and the closed flag checked above flips before the close.
		case s.queue <- j: //lint:allow chanown send and close are serialized by s.mu via the closed flag
			err = nil
		default:
			err = errFull
		}
	}
	s.mu.Unlock()
	if err != nil {
		s.metrics.jobRejected()
		j.cancel()
		if j.run != nil {
			s.runs.settle(j.run, nil, err, false)
		}
		return err
	}
	s.metrics.jobAccepted()
	return nil
}

// await submits j and waits for its settle step. It answers the client
// itself when j is shed, fails or outlives its deadline, and reports
// whether j succeeded, leaving only the success body to the handler.
func (s *Server) await(w http.ResponseWriter, j *job, what string) bool {
	if err := s.submit(j); err != nil {
		rejectJob(w, err)
		return false
	}
	select {
	case <-j.done:
	case <-j.ctx.Done():
		select {
		case <-j.done: // settled; settle's own cancel ended the context
		default:
			// The handler answers promptly; the worker (if it picked the
			// job up) aborts at its next epoch boundary and settles then.
			writeError(w, http.StatusGatewayTimeout,
				"%s aborted: %v (runs stop at their next epoch boundary)", what, j.ctx.Err())
			return false
		}
	}
	switch {
	case j.err == nil:
		return true
	case isTimeout(j.err):
		writeError(w, http.StatusGatewayTimeout, "%v", j.err)
	default:
		writeError(w, http.StatusInternalServerError, "%v", j.err)
	}
	return false
}

func rejectJob(w http.ResponseWriter, err error) {
	if errors.Is(err, errFull) {
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	}
	writeError(w, http.StatusServiceUnavailable, "%v", err)
}

// Close stops accepting jobs and drains the in-flight ones; it returns
// early (with ctx.Err) if ctx expires first, leaving workers to finish
// in the background.
func (s *Server) Close(ctx context.Context) error {
	s.mu.Lock()
	if !s.closed {
		s.closed = true
		close(s.queue)
	}
	s.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Handler returns the HTTP handler for all endpoints.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/v1/run", s.timed("/v1/run", s.handleRun))
	mux.HandleFunc("/v1/experiment", s.timed("/v1/experiment", s.handleExperiment))
	// Streaming surface: async runs fan out live over SSE/NDJSON and
	// replay from retained history after they finish. The stream
	// endpoints are not wrapped in timed(): a subscriber holds its
	// connection for the run's lifetime, which would drown the latency
	// histogram's request-scale buckets.
	mux.HandleFunc("POST /v1/runs", s.timed("/v1/runs", s.handleRunsCreate))
	mux.HandleFunc("GET /v1/runs", s.handleRunsList)
	mux.HandleFunc("GET /v1/runs/{id}", s.handleRunStatus)
	mux.HandleFunc("GET /v1/runs/{id}/stream", s.handleRunStream)
	mux.HandleFunc("GET /v1/replay/{name}", s.handleTraceReplay)
	return mux
}

// timed wraps a handler with the per-endpoint latency histogram.
func (s *Server) timed(endpoint string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		h(w, r)
		s.metrics.observe(endpoint, float64(time.Since(start).Microseconds())/1000)
	}
}

// RunRequest is the /v1/run request body (POST) or query-parameter set
// (GET). Zero/absent fields take the documented defaults.
type RunRequest struct {
	Algorithm string `json:"algorithm"` // logvis (default) | seqvis | circlevis
	Scheduler string `json:"scheduler"` // sched.Names(); default async-random
	Family    string `json:"family"`    // config.Families(); default uniform
	N         int    `json:"n"`         // default 32
	Seed      int64  `json:"seed"`      // default 1
	NonRigid  bool   `json:"nonRigid"`
	// MinMoveFrac is the guaranteed fraction of a non-rigid move, in
	// (0, 1] (default 0.3). Only meaningful with nonRigid; ignored (and
	// absent from the run's cache identity) otherwise.
	MinMoveFrac float64 `json:"minMoveFrac"`
	MaxEpochs   int     `json:"maxEpochs"` // default engine default (4096)
	// SkipChecks disables per-step safety verification — the engine's
	// raw-throughput mode for large N.
	SkipChecks bool `json:"skipChecks"`
	// TimeoutMs caps this run's wall time (default Options.DefaultTimeout).
	// On expiry the engine aborts at the next epoch boundary and the
	// request fails with 504.
	TimeoutMs int `json:"timeoutMs"`
}

// RunSummary is the /v1/run response.
type RunSummary struct {
	Algorithm     string  `json:"algorithm"`
	Scheduler     string  `json:"scheduler"`
	Family        string  `json:"family"`
	N             int     `json:"n"`
	Seed          int64   `json:"seed"`
	NonRigid      bool    `json:"nonRigid"`
	Reached       bool    `json:"reached"`
	Epochs        int     `json:"epochs"`
	FirstCVEpoch  int     `json:"firstCVEpoch"`
	Events        int     `json:"events"`
	Cycles        int     `json:"cycles"`
	Moves         int     `json:"moves"`
	TotalDist     float64 `json:"totalDist"`
	ColorsUsed    int     `json:"colorsUsed"`
	Collisions    int     `json:"collisions"`
	PathCrossings int     `json:"pathCrossings"`
	MinPairDist   float64 `json:"minPairDist"`
	// Cached reports whether this response was served from the LRU
	// cache without re-running the engine.
	Cached bool `json:"cached"`
}

// errorJSON is the error response body for every non-2xx status.
type errorJSON struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, format string, args ...any) {
	writeJSON(w, status, errorJSON{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":        "ok",
		"version":       version.String(),
		"uptimeSeconds": int64(time.Since(s.started).Seconds()),
	})
}

// MetricsSnapshot is the /metrics response.
type MetricsSnapshot struct {
	Jobs    JobCounters `json:"jobs"`
	Queue   QueueStats  `json:"queue"`
	Workers WorkerStats `json:"workers"`
	Cache   CacheStats  `json:"cache"`
	// LatencyMs maps endpoint path to its latency histogram.
	LatencyMs map[string]LatencySummary `json:"latencyMs"`
}

// QueueStats reports the job queue's occupancy.
type QueueStats struct {
	Depth    int `json:"depth"`
	Capacity int `json:"capacity"`
}

// WorkerStats reports pool utilization.
type WorkerStats struct {
	Total int `json:"total"`
	Busy  int `json:"busy"`
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	// Content negotiation: Prometheus scrapers ask for text/plain (or
	// OpenMetrics); everyone else keeps getting the original JSON
	// snapshot, byte-compatible with pre-Prometheus clients.
	if wantsPrometheus(r) {
		s.writePrometheus(w)
		return
	}
	jobs, busy, lat := s.metrics.snapshot()
	writeJSON(w, http.StatusOK, MetricsSnapshot{
		Jobs:      jobs,
		Queue:     QueueStats{Depth: len(s.queue), Capacity: cap(s.queue)},
		Workers:   WorkerStats{Total: s.opt.Workers, Busy: busy},
		Cache:     s.cache.stats(),
		LatencyMs: lat,
	})
}

// parseRunRequest decodes a RunRequest from a POST JSON body or GET
// query parameters and fills defaults.
func parseRunRequest(r *http.Request) (RunRequest, error) {
	req := RunRequest{Algorithm: "logvis", Scheduler: "async-random", Family: "uniform", N: 32, Seed: 1}
	switch r.Method {
	case http.MethodPost:
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			return req, fmt.Errorf("bad JSON body: %w", err)
		}
		if req.Algorithm == "" {
			req.Algorithm = "logvis"
		}
		if req.Scheduler == "" {
			req.Scheduler = "async-random"
		}
		if req.Family == "" {
			req.Family = "uniform"
		}
		if req.N == 0 {
			req.N = 32
		}
	case http.MethodGet:
		q := r.URL.Query()
		if v := q.Get("algorithm"); v != "" {
			req.Algorithm = v
		}
		if v := q.Get("scheduler"); v != "" {
			req.Scheduler = v
		}
		if v := q.Get("family"); v != "" {
			req.Family = v
		}
		for _, f := range []struct {
			name string
			dst  *int
		}{{"n", &req.N}, {"maxEpochs", &req.MaxEpochs}, {"timeoutMs", &req.TimeoutMs}} {
			if v := q.Get(f.name); v != "" {
				x, err := strconv.Atoi(v)
				if err != nil {
					return req, fmt.Errorf("bad %s=%q: %w", f.name, v, err)
				}
				*f.dst = x
			}
		}
		if v := q.Get("seed"); v != "" {
			x, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("bad seed=%q: %w", v, err)
			}
			req.Seed = x
		}
		if v := q.Get("minMoveFrac"); v != "" {
			x, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("bad minMoveFrac=%q: %w", v, err)
			}
			req.MinMoveFrac = x
		}
		for _, f := range []struct {
			name string
			dst  *bool
		}{{"nonRigid", &req.NonRigid}, {"skipChecks", &req.SkipChecks}} {
			if v := q.Get(f.name); v != "" {
				x, err := strconv.ParseBool(v)
				if err != nil {
					return req, fmt.Errorf("bad %s=%q: %w", f.name, v, err)
				}
				*f.dst = x
			}
		}
	default:
		return req, fmt.Errorf("method %s not allowed", r.Method)
	}
	return req, nil
}

// algorithmByName maps the wire name to a fresh algorithm instance.
func algorithmByName(name string) (model.Algorithm, error) {
	switch name {
	case "logvis":
		return core.NewLogVis(), nil
	case "seqvis":
		return baseline.NewSeqVis(), nil
	case "circlevis":
		return circlevis.NewCircleVis(), nil
	default:
		return nil, fmt.Errorf("unknown algorithm %q (known: logvis, seqvis, circlevis)", name)
	}
}

// validate checks req against the server limits and resolves every
// name, returning the pieces needed to run it.
func (s *Server) validate(req RunRequest) (model.Algorithm, sched.Scheduler, config.Family, error) {
	algo, err := algorithmByName(req.Algorithm)
	if err != nil {
		return nil, nil, "", err
	}
	scheduler, err := sched.ByNameErr(req.Scheduler)
	if err != nil {
		return nil, nil, "", err
	}
	fam := config.Family(req.Family)
	known := false
	for _, f := range config.Families() {
		if fam == f {
			known = true
			break
		}
	}
	if !known {
		names := make([]string, len(config.Families()))
		for i, f := range config.Families() {
			names[i] = string(f)
		}
		return nil, nil, "", fmt.Errorf("unknown family %q (known: %s)", req.Family, strings.Join(names, ", "))
	}
	if req.N < 1 || req.N > s.opt.MaxN {
		return nil, nil, "", fmt.Errorf("n=%d out of range [1, %d]", req.N, s.opt.MaxN)
	}
	if req.MaxEpochs < 0 {
		return nil, nil, "", fmt.Errorf("maxEpochs=%d must be >= 0", req.MaxEpochs)
	}
	if req.TimeoutMs < 0 {
		return nil, nil, "", fmt.Errorf("timeoutMs=%d must be >= 0", req.TimeoutMs)
	}
	// Non-finite floats must be rejected here: the engine's own range
	// clamp is written as `!(f > 0 && f <= 1)` so NaN falls back to the
	// default there, but a NaN reaching cacheKey would also stringify to
	// a key no equivalent request ever matches. 0 means "default".
	if math.IsNaN(req.MinMoveFrac) || math.IsInf(req.MinMoveFrac, 0) {
		return nil, nil, "", fmt.Errorf("minMoveFrac=%v must be finite", req.MinMoveFrac)
	}
	if req.MinMoveFrac < 0 || req.MinMoveFrac > 1 {
		return nil, nil, "", fmt.Errorf("minMoveFrac=%v out of range [0, 1]", req.MinMoveFrac)
	}
	return algo, scheduler, fam, nil
}

// canonical returns req with every defaultable field resolved to the
// value the engine will actually run with: maxEpochs=0 becomes the
// engine default, minMoveFrac collapses to 0 for rigid runs (the engine
// never reads it) and to the engine default for non-rigid runs that
// left it unset. Requests that are equivalent — one spelling a default
// explicitly, the other omitting it — canonicalize identically, so
// they share one cache entry and one in-flight job. Must be called
// after validate: it assumes finite, in-range numeric fields.
func (req RunRequest) canonical() RunRequest {
	c := req
	if c.MaxEpochs == 0 {
		c.MaxEpochs = sim.DefaultMaxEpochs
	}
	if !c.NonRigid {
		c.MinMoveFrac = 0
		//lint:allow floateq exact 0 is the wire sentinel for "unset", not a computed value
	} else if c.MinMoveFrac == 0 {
		c.MinMoveFrac = sim.DefaultMinMoveFrac
	}
	return c
}

// cacheKey is the canonical identity of a run: the request is
// canonicalized first, then every field that can change the Result is
// formatted in. The timeout is not part of the identity (it changes
// whether a run finishes, not what a finished run computes).
func (req RunRequest) cacheKey() string {
	c := req.canonical()
	return fmt.Sprintf("%s|%s|%s|n=%d|seed=%d|nonRigid=%t|minMoveFrac=%g|maxEpochs=%d|skipChecks=%t",
		c.Algorithm, c.Scheduler, c.Family, c.N, c.Seed,
		c.NonRigid, c.MinMoveFrac, c.MaxEpochs, c.SkipChecks)
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	req, err := parseRunRequest(r)
	if err != nil {
		status := http.StatusBadRequest
		if strings.Contains(err.Error(), "not allowed") {
			status = http.StatusMethodNotAllowed
		}
		writeError(w, status, "%v", err)
		return
	}
	algo, scheduler, fam, err := s.validate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	key := req.cacheKey()
	if cached, ok := s.cache.get(key); ok {
		out := *cached
		out.Cached = true
		writeJSON(w, http.StatusOK, out)
		return
	}

	rec := s.runs.add(req, nil)
	j := s.newJob(r.Context(), req.TimeoutMs, key, rec, s.runBody(rec, algo, scheduler, fam))
	if s.await(w, j, "run") {
		writeJSON(w, http.StatusOK, *j.res)
	}
}

// runBody returns the body of r's job: the engine runs r's request with
// the server's lifetime totals, r's epoch counter and r's hub (when
// streamed) observing, and the Result is mapped to a RunSummary.
func (s *Server) runBody(r *run, algo model.Algorithm, scheduler sched.Scheduler,
	fam config.Family) func(context.Context) (*RunSummary, error) {
	return func(ctx context.Context) (*RunSummary, error) {
		s.runs.start(r)
		c := r.req.canonical()
		pts := config.Generate(fam, c.N, c.Seed)
		opt := sim.DefaultOptions(scheduler, c.Seed)
		opt.MaxEpochs = c.MaxEpochs
		opt.NonRigid = c.NonRigid
		if c.NonRigid {
			opt.MinMoveFrac = c.MinMoveFrac
		}
		opt.SkipSafetyChecks = c.SkipChecks
		// Lifetime engine totals for /metrics plus the run's epoch
		// counter for /debug/runs; both are lock-free on the engine side.
		// A nil *stream.Hub would be a non-nil Observer, so it stays out.
		var hub sim.Observer
		if r.hub != nil {
			hub = r.hub
		}
		opt.Observer = obs.Multi(s.totals, &obs.Funcs{
			OnEpochEnd: func(e sim.EpochSample) { r.epoch.Store(int64(e.Epoch)) },
		}, hub)
		res, err := sim.RunCtx(ctx, algo, pts, opt)
		if err != nil {
			return nil, err
		}
		return &RunSummary{
			Algorithm:     res.Algorithm,
			Scheduler:     res.Scheduler,
			Family:        string(fam),
			N:             res.N,
			Seed:          res.Seed,
			NonRigid:      c.NonRigid,
			Reached:       res.Reached,
			Epochs:        res.Epochs,
			FirstCVEpoch:  res.FirstCVEpoch,
			Events:        res.Events,
			Cycles:        res.Cycles,
			Moves:         res.Moves,
			TotalDist:     res.TotalDist,
			ColorsUsed:    res.ColorsUsed,
			Collisions:    res.Collisions,
			PathCrossings: res.PathCrossings,
			MinPairDist:   res.MinPairDist,
		}, nil
	}
}

// ExperimentRequest is the /v1/experiment request body.
type ExperimentRequest struct {
	Name      string `json:"name"` // exp.Names()
	Quick     bool   `json:"quick"`
	Seeds     int    `json:"seeds"`
	MaxEpochs int    `json:"maxEpochs"`
	TimeoutMs int    `json:"timeoutMs"`
}

func (s *Server) handleExperiment(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeError(w, http.StatusMethodNotAllowed, "method %s not allowed", r.Method)
		return
	}
	var req ExperimentRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, "bad JSON body: %v", err)
		return
	}
	known := false
	for _, name := range exp.Names() {
		if req.Name == name {
			known = true
			break
		}
	}
	if !known {
		writeError(w, http.StatusBadRequest, "unknown experiment %q (known: %s)",
			req.Name, strings.Join(exp.Names(), ", "))
		return
	}
	if req.Seeds < 0 || req.MaxEpochs < 0 || req.TimeoutMs < 0 {
		writeError(w, http.StatusBadRequest, "seeds, maxEpochs and timeoutMs must be >= 0")
		return
	}

	// The handler may time out while the worker still writes, so the
	// buffer is locked per write — never across the run itself, which
	// blocks on the experiment's worker pool.
	out := &lockedBuffer{}
	j := s.newJob(r.Context(), req.TimeoutMs, "", nil, func(ctx context.Context) (*RunSummary, error) {
		cfg := exp.Config{
			Quick:     req.Quick,
			Seeds:     req.Seeds,
			MaxEpochs: req.MaxEpochs,
			Out:       out,
			Ctx:       ctx,
		}
		return nil, exp.Run(req.Name, cfg)
	})
	if s.await(w, j, "experiment") {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		_, _ = fmt.Fprint(w, out.String())
	}
}

// lockedBuffer is a mutex-guarded string accumulator shared between an
// experiment worker (writing progress) and its handler (snapshotting
// the output). The lock is held only for the duration of one write or
// read, never across the experiment run.
type lockedBuffer struct {
	mu  sync.Mutex
	buf strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}
