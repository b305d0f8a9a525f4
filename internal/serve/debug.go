package serve

import (
	"net/http"
	"net/http/pprof"
	"time"

	"luxvis/internal/version"
)

// DebugRun is one row of the /debug/runs listing.
type DebugRun struct {
	// ID is the run's registry id: for a streamed run, the id its
	// POST /v1/runs returned.
	ID        string `json:"id"`
	Algorithm string `json:"algorithm"`
	Scheduler string `json:"scheduler"`
	Family    string `json:"family"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
	// Epoch is the run's last completed epoch (0 while the first epoch
	// is still in flight).
	Epoch int64 `json:"epoch"`
	// RunningMs and StartedAt count from when a worker began the run,
	// not from its submission.
	RunningMs int64     `json:"runningMs"`
	StartedAt time.Time `json:"startedAt"`
}

// DebugRuns is the /debug/runs response.
type DebugRuns struct {
	Count int        `json:"count"`
	Runs  []DebugRun `json:"runs"`
}

// handleDebugRuns lists the runs executing on a worker now, from both
// /v1/run and /v1/runs.
func (s *Server) handleDebugRuns(w http.ResponseWriter, r *http.Request) {
	runs := s.runs.list(running)
	out := DebugRuns{Count: len(runs), Runs: make([]DebugRun, 0, len(runs))}
	for _, rs := range runs {
		e := rs.r
		out.Runs = append(out.Runs, DebugRun{
			ID:        e.id,
			Algorithm: e.req.Algorithm,
			Scheduler: e.req.Scheduler,
			Family:    e.req.Family,
			N:         e.req.N,
			Seed:      e.req.Seed,
			Epoch:     e.epoch.Load(),
			RunningMs: time.Since(rs.out.started).Milliseconds(),
			StartedAt: rs.out.started,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// DebugHandler returns the operator-only handler: net/http/pprof under
// /debug/pprof/ and the in-flight run listing under /debug/runs. It is
// meant for a separate loopback listener (visserve -debug-addr), never
// the public one — profiles expose memory contents.
func (s *Server) DebugHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/runs", s.handleDebugRuns)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/", func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path != "/" {
			http.NotFound(w, r)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		//lint:allow errsink best-effort banner on the loopback debug listener; an http.ResponseWriter error here means the client hung up and there is no stream state to protect
		_, _ = w.Write([]byte(version.String() + "\ndebug endpoints: /debug/runs /debug/pprof/ /healthz\n"))
	})
	return mux
}
