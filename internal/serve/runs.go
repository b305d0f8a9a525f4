package serve

import (
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"luxvis/internal/stream"
)

// run is one engine run from submission to its settle step, whichever
// endpoint started it. Only a POST /v1/runs run carries a hub: a hub
// allocates its whole history ring up front, and a /v1/run client reads
// only the summary.
type run struct {
	id        string // "r<seq>": the /v1/runs id and the /debug/runs id
	seq       int64
	req       RunRequest
	hub       *stream.Hub // nil unless the run is streamed
	submitted time.Time
	// epoch is the last completed epoch: the engine goroutine stores it
	// while /debug/runs handlers load it.
	epoch atomic.Int64
	// out is guarded by the registry's mu.
	out outcome
}

// outcome is the mutable part of a run.
type outcome struct {
	state   string    // "queued" | "running" | "done" | "failed"
	started time.Time // when a worker began the run; zero while queued
	summary *RunSummary
	err     error
}

// runSnap is a run with its outcome as read under the registry lock.
type runSnap struct {
	r   *run
	out outcome
}

// registry tracks every run by id under one lock: the queued and
// running runs of both endpoints, plus a bounded tail of finished
// streamed runs retained for replay. /debug/runs,
// visserve_runs_inflight and the /v1/runs endpoints all read it.
//
// Goroutine-lifecycle contract (the dynamic half of what the goleak
// analyzer proves statically): the registry owns no goroutines and
// closes no channels. Each run executes on a pool worker and ends via
// its context or run end; its hub is closed by RunEnd or, at the
// latest, by settle. Eviction is therefore pure bookkeeping: Release
// (idempotent) returns the evicted hub's ring accounting, while
// subscribers mid-drain on it still finish — a closed hub serves
// retained history to io.EOF, so forgetting a run can never park a
// consumer goroutine forever.
type registry struct {
	retain int

	mu   sync.Mutex
	seq  int64
	runs map[string]*run
	// retained lists finished streamed runs oldest-first; once it
	// exceeds retain, the oldest is forgotten and its hub released.
	retained []*run
}

func newRegistry(retain int) *registry {
	return &registry{retain: retain, runs: make(map[string]*run)}
}

// add registers a queued run under the next id.
func (g *registry) add(req RunRequest, hub *stream.Hub) *run {
	g.mu.Lock()
	defer g.mu.Unlock()
	g.seq++
	r := &run{
		id:        "r" + strconv.FormatInt(g.seq, 10),
		seq:       g.seq,
		req:       req,
		hub:       hub,
		submitted: time.Now(),
		out:       outcome{state: "queued"},
	}
	g.runs[r.id] = r
	return r
}

// start marks r running; its worker calls it as the engine begins.
func (g *registry) start(r *run) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r.out.state, r.out.started = "running", time.Now()
}

// settle records r's terminal outcome. In the same critical section a
// streamed run that ran (retain) joins the retention tail, and the
// oldest retained runs beyond the limit are forgotten; every other run
// is forgotten at once. Readers take the same lock, so a client that
// reads run k's terminal state can no longer read run k−retain. The hub
// closes first (a no-op when RunEnd already closed it), so a run's
// stream has ended by the time its state says so.
func (g *registry) settle(r *run, res *RunSummary, err error, retain bool) {
	state := "done"
	if err != nil {
		state, res = "failed", nil
	}
	if r.hub != nil {
		r.hub.Close(err)
	}
	var forgotten []*run
	g.mu.Lock()
	r.out.state, r.out.summary, r.out.err = state, res, err
	if retain && r.hub != nil {
		g.retained = append(g.retained, r)
		for len(g.retained) > g.retain {
			forgotten = append(forgotten, g.retained[0])
			g.retained = g.retained[1:]
		}
	} else {
		forgotten = append(forgotten, r)
	}
	for _, old := range forgotten {
		delete(g.runs, old.id)
	}
	g.mu.Unlock()
	for _, old := range forgotten {
		if old.hub != nil {
			old.hub.Release()
		}
	}
}

// get returns the streamed run with the given id.
func (g *registry) get(id string) (runSnap, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	r, ok := g.runs[id]
	if !ok || r.hub == nil {
		return runSnap{}, false
	}
	return runSnap{r, r.out}, true
}

// list returns the runs keep accepts, in submission order.
func (g *registry) list(keep func(runSnap) bool) []runSnap {
	var out []runSnap
	g.mu.Lock()
	for _, r := range g.runs {
		if rs := (runSnap{r, r.out}); keep(rs) {
			out = append(out, rs)
		}
	}
	g.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].r.seq < out[j].r.seq })
	return out
}

// running selects the runs executing on a worker now.
func running(rs runSnap) bool { return rs.out.state == "running" }

// streamed selects the runs that POST /v1/runs started.
func streamed(rs runSnap) bool { return rs.r.hub != nil }
