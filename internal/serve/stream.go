package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"luxvis/internal/stream"
)

// Streaming endpoints. A run started with POST /v1/runs is an ordinary
// run (same registry, job and settle step as /v1/run) that carries a
// stream.Hub as its observer and outlives its request. Any number of
// clients can follow it live via GET /v1/runs/{id}/stream — each frame
// is encoded once by the hub and fanned out; a slow client's ring
// overwrites oldest-first and refills from the hub's history, and a
// client can resume with Last-Event-ID. Finished runs are retained
// (bounded) so the same endpoint replays them from the hub's history
// ring; stored trace files replay through GET /v1/replay/{name} when
// Options.TraceDir is set.
//
// Content negotiation: Accept: text/event-stream gets SSE (id: is the
// resume cursor, data: is one trace-JSONL line, the terminal frame is
// event: end); anything else gets raw NDJSON — exactly the trace JSONL
// encoding, so `curl .../stream | visreplay -` works.

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

// status renders the run as a /v1/runs document.
func (rs runSnap) status() StreamRunStatus {
	r, st := rs.r, rs.r.hub.Stats()
	out := StreamRunStatus{
		ID:          r.id,
		State:       rs.out.state,
		Algorithm:   r.req.Algorithm,
		Scheduler:   r.req.Scheduler,
		Family:      r.req.Family,
		N:           r.req.N,
		Seed:        r.req.Seed,
		Frames:      st.Frames,
		Retained:    st.Depth,
		OldestSeq:   st.OldestSeq,
		Subscribers: st.Subscribers,
		StartedAt:   r.submitted,
		StreamPath:  "/v1/runs/" + r.id + "/stream",
		Summary:     rs.out.summary,
	}
	if rs.out.err != nil {
		out.Error = rs.out.err.Error()
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

	rec := s.runs.add(req, stream.NewHub(stream.HubOptions{
		History:  s.opt.StreamHistory,
		Counters: s.streamCtr,
	}))
	// The run deliberately outlives the creating request: the POST
	// returns 202 immediately and clients follow the run over the stream
	// endpoint, so the job's lifetime is bounded by its own timeout, not
	// by r.Context(). Its worker's settle step ends it.
	j := s.newJob(context.Background(), req.TimeoutMs, req.cacheKey(), rec,
		s.runBody(rec, algo, scheduler, fam))
	if err := s.submit(j); err != nil {
		rejectJob(w, err)
		return
	}
	writeJSON(w, http.StatusAccepted, runSnap{rec, outcome{state: "queued"}}.status())
}

// StreamRunList is the GET /v1/runs response.
type StreamRunList struct {
	Count int               `json:"count"`
	Runs  []StreamRunStatus `json:"runs"`
}

func (s *Server) handleRunsList(w http.ResponseWriter, r *http.Request) {
	runs := s.runs.list(streamed)
	out := StreamRunList{Count: len(runs), Runs: make([]StreamRunStatus, 0, len(runs))}
	for _, rs := range runs {
		out.Runs = append(out.Runs, rs.status())
	}
	writeJSON(w, http.StatusOK, out)
}

func (s *Server) handleRunStatus(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, rs.status())
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
	// A Replay error means the client went away or the request context
	// ended: the transport is already torn down, nothing to report.
	if stream.Replay(r.Context(), src, opt, emit) != nil || !sse || endNote == nil {
		return
	}
	if note := endNote(); note != nil {
		// Terminal SSE frame: a write error here means the client hung up
		// after receiving the whole stream.
		_, _ = fmt.Fprintf(w, "event: end\ndata: %s\n\n", note)
		//lint:allow errsink best-effort flush of the terminal frame; the stream is complete and the connection is about to close
		_ = rc.Flush()
	}
}

// handleRunStream serves GET /v1/runs/{id}/stream: live fan-out while
// the run executes, replay from the hub's retained history once it has
// finished. Both are unpaced by default — a live stream is clocked by
// the run itself, and a finished run streams as fast as the client
// reads, so a GET that lands just after a small run ends is not slowed
// to the 1x replay pace. ?speed= opts into synthetic pacing.
func (s *Server) handleRunStream(w http.ResponseWriter, r *http.Request) {
	rs, ok := s.runs.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "unknown run %q", r.PathValue("id"))
		return
	}
	p, err := parseStreamParams(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	hub := rs.r.hub
	sub := hub.Subscribe(p.after)
	defer sub.Close()
	s.streamTo(w, r, sub, stream.ReplayOptions{Speed: p.speed, FromEpoch: p.fromEpoch}, sub.Gap(), hub.EndNote)
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
