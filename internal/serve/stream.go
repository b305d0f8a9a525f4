package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/obs"
	"luxvis/internal/sim"
	"luxvis/internal/stream"
)

// Streaming endpoints. A run started with POST /v1/runs executes
// asynchronously on the same bounded worker pool as /v1/run, with a
// stream.Hub attached as its observer. Any number of clients can then
// follow the run live via GET /v1/runs/{id}/stream — each frame is
// encoded once by the hub and fanned out; a slow client is dropped-from
// or evicted per the hub policy and can resume with Last-Event-ID.
// Finished runs are retained (bounded) so the same endpoint replays
// them from the hub's history ring; stored trace files replay through
// GET /v1/replay/{name} when Options.TraceDir is set.
//
// Content negotiation: Accept: text/event-stream gets SSE (id: is the
// resume cursor, data: is one trace-JSONL line, the terminal frame is
// event: end); anything else gets raw NDJSON — exactly the trace JSONL
// encoding, so `curl .../stream | visreplay -` works.

// streamRun is one asynchronous, streamable run.
type streamRun struct {
	id      string
	req     RunRequest
	family  string
	hub     *stream.Hub
	started time.Time

	mu      sync.Mutex
	state   string // "queued" | "running" | "done" | "failed"
	summary *RunSummary
	runErr  error
}

func (sr *streamRun) setRunning() {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	if sr.state == "queued" {
		sr.state = "running"
	}
}

// finish records the terminal state and makes sure the hub is closed
// even when the engine never reached RunEnd (queue rejection, abort
// before the first epoch).
func (sr *streamRun) finish(res *RunSummary, err error) {
	sr.mu.Lock()
	if err != nil {
		sr.state = "failed"
		sr.runErr = err
	} else {
		sr.state = "done"
		sr.summary = res
	}
	sr.mu.Unlock()
	sr.hub.Close(err)
}

func (sr *streamRun) status() (state string, summary *RunSummary, runErr error) {
	sr.mu.Lock()
	defer sr.mu.Unlock()
	return sr.state, sr.summary, sr.runErr
}

// streamRegistry tracks streamable runs by id: the in-flight ones plus a
// bounded tail of completed ones retained for replay-from-cache.
//
// Retention and goroutine-lifecycle contract (the dynamic half of what
// the goleak analyzer proves statically): the registry owns no
// goroutines and closes no channels — each run's engine goroutine is
// the runner's, exits via its context or run end, and its hub is
// closed by RunEnd before completed() is called. Eviction is therefore
// pure bookkeeping: Release (idempotent) returns the evicted hub's
// ring accounting, while subscribers mid-drain on it still finish —
// a closed hub serves retained history to io.EOF, so forgetting a run
// can never park a consumer goroutine forever.
type streamRegistry struct {
	retain int

	mu   sync.Mutex
	seq  int64
	runs map[string]*streamRun
	// doneOrder lists completed run ids oldest-first; once it exceeds
	// retain, the oldest hub is released and its run forgotten.
	doneOrder []string
}

func newStreamRegistry(retain int) *streamRegistry {
	return &streamRegistry{retain: retain, runs: make(map[string]*streamRun)}
}

func (g *streamRegistry) add(req RunRequest, family string, hub *stream.Hub) *streamRun {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	sr := &streamRun{
		id:      fmt.Sprintf("r%d", g.seq),
		req:     req,
		family:  family,
		hub:     hub,
		started: time.Now(),
		state:   "queued",
	}
	g.runs[sr.id] = sr
	return sr
}

func (g *streamRegistry) get(id string) (*streamRun, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	sr, ok := g.runs[id]
	return sr, ok
}

// remove forgets a run that never started (submit failure).
func (g *streamRegistry) remove(id string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.runs, id)
}

// completed moves a finished run into the bounded retention tail,
// evicting (and releasing) the oldest beyond the retain limit.
func (g *streamRegistry) completed(sr *streamRun) {
	var evicted []*streamRun
	g.mu.Lock()
	g.doneOrder = append(g.doneOrder, sr.id)
	for len(g.doneOrder) > g.retain {
		oldest := g.doneOrder[0]
		g.doneOrder = g.doneOrder[1:]
		if old, ok := g.runs[oldest]; ok {
			delete(g.runs, oldest)
			evicted = append(evicted, old)
		}
	}
	g.mu.Unlock()
	// Release returns ring accounting to the shared counters; subscribers
	// mid-drain on an evicted hub still finish (the hub itself is GC-safe,
	// only the registry forgets it).
	for _, old := range evicted {
		old.hub.Release()
	}
}

func (g *streamRegistry) list() []*streamRun {
	g.mu.Lock()
	out := make([]*streamRun, 0, len(g.runs))
	for _, sr := range g.runs {
		out = append(out, sr)
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].started.Before(out[j].started) })
	return out
}

// StreamRunStatus is the GET /v1/runs/{id} (and list element) response.
type StreamRunStatus struct {
	ID        string `json:"id"`
	State     string `json:"state"`
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler"`
	Family    string `json:"family"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	// Frames is the number of stream frames published so far; Retained
	// is how many the resume ring still holds, starting at OldestSeq.
	Frames      uint64      `json:"frames"`
	Retained    int         `json:"retained"`
	OldestSeq   uint64      `json:"oldestSeq"`
	Subscribers int         `json:"subscribers"`
	StartedAt   time.Time   `json:"startedAt"`
	StreamPath  string      `json:"streamPath"`
	Summary     *RunSummary `json:"summary,omitempty"`
	Error       string      `json:"error,omitempty"`
}

func (sr *streamRun) statusJSON() StreamRunStatus {
	state, summary, runErr := sr.status()
	st := sr.hub.Stats()
	out := StreamRunStatus{
		ID:          sr.id,
		State:       state,
		Algorithm:   sr.req.Algorithm,
		Scheduler:   sr.req.Scheduler,
		Family:      sr.family,
		N:           sr.req.N,
		Seed:        sr.req.Seed,
		Frames:      st.Frames,
		Retained:    st.Depth,
		OldestSeq:   st.OldestSeq,
		Subscribers: st.Subscribers,
		StartedAt:   sr.started,
		StreamPath:  "/v1/runs/" + sr.id + "/stream",
		Summary:     summary,
	}
	if runErr != nil {
		out.Error = runErr.Error()
	}
	return out
}

// handleRunsCreate starts an asynchronous streamable run: 202 with the
// run id and stream path; the engine executes on the worker pool.
func (s *Server) handleRunsCreate(w http.ResponseWriter, r *http.Request) {
	req, err := parseRunRequest(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	algo, scheduler, fam, err := s.validate(req)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}

	hub := stream.NewHub(stream.HubOptions{
		History:  s.opt.StreamHistory,
		Counters: s.streamCtr,
		Note:     "live stream",
	})
	sr := s.streams.add(req, string(fam), hub)

	// The run deliberately outlives the creating request: the POST
	// returns 202 immediately and clients follow the run over the stream
	// endpoint, so the job's lifetime is bounded by its own timeout, not
	// by r.Context().
	ctx, cancel := context.WithTimeout(context.Background(), s.timeoutFor(req.TimeoutMs))

	j := &job{
		ctx:    ctx,
		key:    req.cacheKey(),
		done:   make(chan struct{}),
		server: s,
		run: func(ctx context.Context) (*RunSummary, error) {
			sr.setRunning()
			c := req.canonical()
			pts := config.Generate(fam, c.N, c.Seed)
			opt := sim.DefaultOptions(scheduler, c.Seed)
			opt.MaxEpochs = c.MaxEpochs
			opt.NonRigid = c.NonRigid
			if c.NonRigid {
				opt.MinMoveFrac = c.MinMoveFrac
			}
			opt.SkipSafetyChecks = c.SkipChecks
			entry := s.runs.add(req, string(fam))
			defer s.runs.remove(entry.id)
			opt.Observer = obs.Multi(s.totals, entry.observer(), hub)
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
				NonRigid:      req.NonRigid,
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
		},
	}
	if err := s.submitTracked(j); err != nil {
		cancel()
		sr.finish(nil, err)
		s.streams.remove(sr.id)
		hub.Release()
		s.rejectJob(w, err)
		return
	}
	go s.finishAsync(sr, j, cancel)

	writeJSON(w, http.StatusAccepted, StreamRunStatus{
		ID:         sr.id,
		State:      "queued",
		Algorithm:  req.Algorithm,
		Scheduler:  req.Scheduler,
		Family:     string(fam),
		N:          req.N,
		Seed:       req.Seed,
		StartedAt:  sr.started,
		StreamPath: "/v1/runs/" + sr.id + "/stream",
	})
}

// finishAsync settles an async job once its worker closes done: terminal
// state, job accounting, and completed-run retention.
func (s *Server) finishAsync(sr *streamRun, j *job, cancel context.CancelFunc) {
	<-j.done
	cancel()
	sr.finish(j.res, j.err)
	switch {
	case j.err == nil:
		s.metrics.jobCompleted()
	case errors.Is(j.err, context.DeadlineExceeded) || errors.Is(j.err, context.Canceled):
		s.metrics.jobTimedOut()
	default:
		s.metrics.jobFailed()
	}
	s.streams.completed(sr)
}

// StreamRunList is the GET /v1/runs response.
type StreamRunList struct {
	Count int               `json:"count"`
	Runs  []StreamRunStatus `json:"runs"`
}

func (s *Server) handleRunsList(w http.ResponseWriter, r *http.Request) {
	runs := s.streams.list()
	out := StreamRunList{Count: len(runs), Runs: make([]StreamRunStatus, 0, len(runs))}
	for _, sr := range runs {
		out.Runs = append(out.Runs, sr.statusJSON())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	sr, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, sr.statusJSON())
}

// streamParams are the per-request stream shaping knobs.
type streamParams struct {
	after     uint64  // resume cursor: Last-Event-ID header or ?after=
	speed     float64 // ?speed= replay pace multiplier
	speedSet  bool
	fromEpoch int // ?from= epoch seek
	sse       bool
}

func parseStreamParams(r *http.Request) (streamParams, error) {
	var p streamParams
	q := r.URL.Query()
	if v := r.Header.Get("Last-Event-ID"); v != "" {
		x, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad Last-Event-ID %q: %w", v, err)
		}
		p.after = x
	}
	// ?after= overrides the header: it is the explicit, curl-able form.
	if v := q.Get("after"); v != "" {
		x, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return p, fmt.Errorf("bad after=%q: %w", v, err)
		}
		p.after = x
	}
	if v := q.Get("speed"); v != "" {
		x, err := strconv.ParseFloat(v, 64)
		if err != nil || x < 0 {
			return p, fmt.Errorf("bad speed=%q (want a multiplier >= 0; 0 = unpaced)", v)
		}
		p.speed = x
		p.speedSet = true
	}
	if v := q.Get("from"); v != "" {
		x, err := strconv.Atoi(v)
		if err != nil || x < 0 {
			return p, fmt.Errorf("bad from=%q (want an epoch >= 0)", v)
		}
		p.fromEpoch = x
	}
	p.sse = strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	return p, nil
}

// streamTo pumps src to the client in the negotiated encoding, flushing
// per frame so consumers see events as they happen. endNote, when
// non-nil, is sent as the SSE terminal event after a clean end of
// stream (NDJSON stays a pure trace stream — header and event lines
// only, byte-compatible with a stored trace file).
func (s *Server) streamTo(w http.ResponseWriter, r *http.Request, src stream.Source, opt stream.ReplayOptions, gap uint64, endNote func() []byte) {
	rc := http.NewResponseController(w)
	if gap > 0 {
		// The resume cursor predates the ring: the client lost gap frames.
		w.Header().Set("X-Stream-Gap", strconv.FormatUint(gap, 10))
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)

	emit := func(f stream.Frame) error {
		var err error
		if sse {
			_, err = fmt.Fprintf(w, "id: %d\ndata: %s\n\n", f.Seq, f.Data)
		} else {
			_, err = fmt.Fprintf(w, "%s\n", f.Data)
		}
		if err != nil {
			return err
		}
		return rc.Flush()
	}
	err := stream.Replay(r.Context(), src, opt, emit)
	switch {
	case err == nil:
		if sse && endNote != nil {
			if note := endNote(); note != nil {
				// Terminal SSE frame: a write error here means the client
				// hung up after receiving the whole stream.
				_, _ = fmt.Fprintf(w, "event: end\ndata: %s\n\n", note)
				//lint:allow errsink best-effort flush of the terminal frame; the stream is complete and the connection is about to close
				_ = rc.Flush()
			}
		}
	case errors.Is(err, stream.ErrEvicted):
		if sse {
			// Best-effort eviction notice on a connection we are
			// abandoning anyway.
			_, _ = fmt.Fprint(w, "event: error\ndata: {\"error\":\"evicted: subscriber fell too far behind\"}\n\n")
			//lint:allow errsink best-effort flush of the eviction notice on a connection being abandoned
			_ = rc.Flush()
		}
	default:
		// Client went away or the run context ended: the transport is
		// already torn down, nothing to report.
	}
}

// handleRunStream serves GET /v1/runs/{id}/stream: live fan-out while
// the run executes, replay from the hub's retained history once it has
// finished. Both are unpaced by default — a live stream is clocked by
// the run itself, and a finished run streams as fast as the client
// reads, so a GET that lands just after a small run ends is not slowed
// to the 1x replay pace. ?speed= opts into synthetic pacing.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	sr, ok := s.streams.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	p, err := parseStreamParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	sub := sr.hub.Subscribe(p.after)
	defer sub.Close()
	s.streamTo(w, r, sub, stream.ReplayOptions{Speed: p.speed, FromEpoch: p.fromEpoch}, sub.Gap(), sr.hub.EndNote)
}

// traceName accepts plain file names only — path separators and dot
// prefixes never reach the filesystem.
var traceName = regexp.MustCompile(`^[a-zA-Z0-9][a-zA-Z0-9._-]*$`)

// handleTraceReplay serves GET /v1/replay/{name}: a stored trace file
// from Options.TraceDir replayed as a timed stream, 1x by default.
func (s *Server) handleTraceReplay(w http.ResponseWriter, r *http.Request) {
	if s.opt.TraceDir == "" {
		writeError(w, http.StatusNotFound, "trace replay is not enabled (start with a trace directory)")
		return
	}
	name := r.PathValue("name")
	if !traceName.MatchString(name) {
		writeError(w, http.StatusBadRequest, "bad trace name %q", name)
		return
	}
	p, err := parseStreamParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	f, err := os.Open(filepath.Join(s.opt.TraceDir, name))
	if err != nil {
		writeError(w, http.StatusNotFound, "trace %q not found", name)
		return
	}
	defer f.Close()
	src, dec, err := stream.NewFileSource(f)
	if err != nil {
		writeError(w, http.StatusBadRequest, "trace %q: %v", name, err)
		return
	}
	speed := 1.0
	if p.speedSet {
		speed = p.speed
	}
	endNote := func() []byte {
		h := dec.Header()
		note, err := json.Marshal(map[string]any{
			"kind": "end", "reached": h.Reached, "epochs": h.Epochs, "events": h.Events,
		})
		if err != nil {
			return nil
		}
		return note
	}
	s.streamTo(w, r, src, stream.ReplayOptions{
		Speed:     speed,
		FromEpoch: p.fromEpoch,
		AfterSeq:  p.after,
	}, 0, endNote)
}
