package sim

import (
	"bytes"
	"context"
	"errors"
	"io"
	"math/rand"
	"reflect"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"luxvis/internal/baseline"
	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// productionPipelineMin is pipelineMinRobots as shipped, before init
// lowers it.
var productionPipelineMin = pipelineMinRobots

// Every run in this package's tests pipelines whatever its swarm size,
// so the package under -cpu 4 drives the pipelined path wherever -cpu 1
// drives the inline one, on swarms small enough to test quickly.
func init() { pipelineMinRobots = 1 }

// withProcs runs f under GOMAXPROCS(n). One proc computes inline; more
// than one pipelines Compute on the worker pool, whatever the host's
// core count.
func withProcs(n int, f func()) {
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	f()
}

// requireNoLeak fails unless the goroutine count returns to before. A
// joined worker may still be unwinding for a moment after wg.Wait
// returns, so the count gets a short grace period to settle.
func requireNoLeak(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the run, %d before: compute workers leaked", runtime.NumGoroutine(), before)
		}
		time.Sleep(time.Millisecond)
	}
}

// runBoth runs the same (algorithm, start, Options) inline and
// pipelined and returns both results and errors.
func runBoth(t *testing.T, mk func() model.Algorithm, start []geom.Point, opt func() Options) (inline, piped Result, inErr, pipeErr error) {
	t.Helper()
	before := runtime.NumGoroutine()
	withProcs(1, func() { inline, inErr = Run(mk(), start, opt()) })
	withProcs(4, func() { piped, pipeErr = Run(mk(), start, opt()) })
	requireNoLeak(t, before)
	return
}

// TestComputePoolGating pins when a run pipelines: a swarm of at least
// pipelineMinRobots, with two procs for each run in flight.
func TestComputePoolGating(t *testing.T) {
	defer func(v int) { pipelineMinRobots = v }(pipelineMinRobots)
	pipelineMinRobots = productionPipelineMin
	big, small := productionPipelineMin, productionPipelineMin-1
	cases := []struct {
		procs, n int
		inFlight int64
		want     bool
	}{
		{1, big, 1, false},   // a single proc overlaps nothing
		{2, big, 1, true},    // a lone run on two procs
		{2, small, 1, false}, // a swarm too small to pay for the handoff
		{2, big, 2, false},   // two runs already hold both procs
		{4, big, 2, true},
		{4, big, 3, false},
	}
	for _, c := range cases {
		withProcs(c.procs, func() {
			p := newComputePool(stayAlgo{}, c.n, c.inFlight)
			if p != nil {
				p.close()
			}
			if got := p != nil; got != c.want {
				t.Errorf("GOMAXPROCS=%d n=%d inFlight=%d: pool started = %v, want %v", c.procs, c.n, c.inFlight, got, c.want)
			}
		})
	}
}

// inFlightProbe stays put and records any in-flight count other than 1
// that a Compute saw.
type inFlightProbe struct {
	stayAlgo
	odd atomic.Int64
}

func (p *inFlightProbe) Compute(s model.Snapshot) model.Action {
	if n := runsInFlight.Load(); n != 1 {
		p.odd.Store(n)
	}
	return p.stayAlgo.Compute(s)
}

// TestRunsInFlightCounted: RunCtx counts itself in flight while it runs
// and stops counting on every way out, a panic included.
func TestRunsInFlightCounted(t *testing.T) {
	pts := config.Generate(config.Uniform, 8, 1)
	opt := DefaultOptions(sched.NewAsyncRandom(), 1)
	opt.MaxEpochs = 3
	probe := &inFlightProbe{}
	if _, err := Run(probe, pts, opt); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := probe.odd.Load(); got != 0 {
		t.Fatalf("a lone run saw %d runs in flight, want 1", got)
	}
	if got := runsInFlight.Load(); got != 0 {
		t.Fatalf("%d runs in flight after the run returned", got)
	}
	func() {
		defer func() { recover() }()
		Run(panicAlgo{victim: pts[2]}, pts, opt)
	}()
	if got := runsInFlight.Load(); got != 0 {
		t.Fatalf("%d runs in flight after every run returned", got)
	}
}

// TestPipelinedComputeMatchesInline pins the pipelining contract: a run
// whose Computes start at Look on the worker pool is the same run,
// field for field, as the one computing inline at each Compute event —
// across algorithms, schedulers, stressors and the event and epoch caps.
func TestPipelinedComputeMatchesInline(t *testing.T) {
	algos := []struct {
		name string
		mk   func() model.Algorithm
	}{
		{"logvis", func() model.Algorithm { return core.NewLogVis() }},
		{"circlevis", func() model.Algorithm { return circlevis.NewCircleVis() }},
		{"seqvis", func() model.Algorithm { return baseline.NewSeqVis() }},
	}
	scheds := []struct {
		name string
		mk   func() sched.Scheduler
	}{
		{"async-random", func() sched.Scheduler { return sched.NewAsyncRandom() }},
		{"async-stale", func() sched.Scheduler { return sched.NewAsyncStale() }},
		{"ssync", func() sched.Scheduler { return sched.NewSSync(0.5) }},
		{"fsync", func() sched.Scheduler { return sched.NewFSync() }},
	}
	stressors := []struct {
		name string
		mut  func(*Options)
		// crash is set when the case must see robot 5 halt at Looked.
		crash bool
	}{
		{"clean", func(*Options) {}, false},
		{"crash-looked", func(o *Options) {
			o.Crashes = []CrashSpec{{Robot: 5, AtEvent: 60, Stage: sched.Looked}}
		}, true},
		{"jitter", func(o *Options) { o.SensorJitter = 1e-6 }, false},
		{"nonrigid", func(o *Options) { o.NonRigid = true }, false},
		{"event-cap", func(o *Options) { o.MaxEvents = 150 }, false},
		{"epoch-cap", func(o *Options) { o.MaxEpochs = 2 }, false},
	}
	start := config.Generate(config.Uniform, 24, 5)
	for _, a := range algos {
		for _, s := range scheds {
			for _, st := range stressors {
				t.Run(a.name+"/"+s.name+"/"+st.name, func(t *testing.T) {
					opt := func() Options {
						o := DefaultOptions(s.mk(), 17)
						o.MaxEpochs = 40
						o.RecordTrace = true
						st.mut(&o)
						return o
					}
					inline, piped, inErr, pipeErr := runBoth(t, a.mk, start, opt)
					if inErr != nil || pipeErr != nil {
						t.Fatalf("Run: inline %v, pipelined %v", inErr, pipeErr)
					}
					if st.crash && !reflect.DeepEqual(inline.Crashed, []int{5}) {
						t.Fatalf("Crashed = %v, want [5]: the Looked crash never fired", inline.Crashed)
					}
					if len(inline.Trace) == 0 {
						t.Fatal("empty trace")
					}
					if !reflect.DeepEqual(inline, piped) {
						t.Fatalf("pipelined run diverged from inline:\ninline:    events=%d epochs=%d moves=%d crossings=%d reached=%v kernel=%+v\npipelined: events=%d epochs=%d moves=%d crossings=%d reached=%v kernel=%+v",
							inline.Events, inline.Epochs, inline.Moves, inline.PathCrossings, inline.Reached, inline.Kernel,
							piped.Events, piped.Epochs, piped.Moves, piped.PathCrossings, piped.Reached, piped.Kernel)
					}
				})
			}
		}
	}
}

// cancelAfter wraps an algorithm to cancel a context from inside its
// k-th Compute, wherever the engine runs that Compute. It never changes
// an action.
type cancelAfter struct {
	model.Algorithm
	k      int64
	calls  atomic.Int64
	cancel context.CancelFunc
}

func (c *cancelAfter) Compute(s model.Snapshot) model.Action {
	if c.calls.Add(1) == c.k {
		c.cancel()
	}
	return c.Algorithm.Compute(s)
}

// TestPipelinedCancelIsPrefix: a pipelined run cancelled mid-flight
// still stops at an epoch boundary with a faithful prefix of the
// uncancelled run, and joins its workers before RunCtx returns.
func TestPipelinedCancelIsPrefix(t *testing.T) {
	start := config.Generate(config.Uniform, 24, 2)
	opt := func() Options {
		o := DefaultOptions(sched.NewAsyncRandom(), 9)
		o.RecordTrace = true
		return o
	}
	before := runtime.NumGoroutine()
	withProcs(4, func() {
		full, err := Run(core.NewLogVis(), start, opt())
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		algo := &cancelAfter{Algorithm: core.NewLogVis(), k: 200, cancel: cancel}
		part, err := RunCtx(ctx, algo, start, opt())
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("RunCtx error = %v, want context.Canceled", err)
		}
		if part.Epochs >= full.Epochs || len(part.Trace) == 0 {
			t.Fatalf("cancelled run kept %d epochs (%d events) of %d", part.Epochs, len(part.Trace), full.Epochs)
		}
		if !reflect.DeepEqual(part.Trace, full.Trace[:len(part.Trace)]) {
			t.Fatal("cancelled run's trace is not a prefix of the full run's")
		}
		if len(part.Violations) > len(full.Violations) ||
			!reflect.DeepEqual(part.Violations, full.Violations[:len(part.Violations)]) {
			t.Fatal("cancelled run's violations are not a prefix of the full run's")
		}

		pre, cancelPre := context.WithCancel(context.Background())
		cancelPre()
		if _, err := RunCtx(pre, core.NewLogVis(), start, opt()); !errors.Is(err, context.Canceled) {
			t.Fatalf("pre-cancelled RunCtx error = %v, want context.Canceled", err)
		}
	})
	requireNoLeak(t, before)
}

// busyAlgo wraps an algorithm to count the Computes running right now;
// each one lingers briefly so a Compute outliving its run would be seen.
type busyAlgo struct {
	model.Algorithm
	busy atomic.Int64
}

func (b *busyAlgo) Compute(s model.Snapshot) model.Action {
	b.busy.Add(1)
	defer b.busy.Add(-1)
	time.Sleep(50 * time.Microsecond)
	return b.Algorithm.Compute(s)
}

// TestPipelinedRunJoinsWorkers: no Compute is still running once RunCtx
// returns, on every exit path — quiescence, the event and epoch caps,
// cancellation, and a run whose crashed robot left a result unread.
func TestPipelinedRunJoinsWorkers(t *testing.T) {
	start := config.Generate(config.Uniform, 24, 3)
	cases := []struct {
		name string
		mut  func(*Options)
		ctx  func() (context.Context, context.CancelFunc)
	}{
		{"quiescence", func(*Options) {}, nil},
		{"event-cap", func(o *Options) { o.MaxEvents = 97 }, nil},
		{"epoch-cap", func(o *Options) { o.MaxEpochs = 1 }, nil},
		{"crash-looked", func(o *Options) {
			o.Crashes = []CrashSpec{{Robot: 2, AtEvent: 30, Stage: sched.Looked}}
		}, nil},
		{"deadline", func(*Options) {}, func() (context.Context, context.CancelFunc) {
			return context.WithTimeout(context.Background(), 20*time.Millisecond)
		}},
	}
	before := runtime.NumGoroutine()
	withProcs(4, func() {
		for _, c := range cases {
			ctx, cancel := context.Background(), context.CancelFunc(func() {})
			if c.ctx != nil {
				ctx, cancel = c.ctx()
			}
			opt := DefaultOptions(sched.NewAsyncRandom(), 6)
			c.mut(&opt)
			algo := &busyAlgo{Algorithm: core.NewLogVis()}
			_, err := RunCtx(ctx, algo, start, opt)
			cancel()
			if c.ctx != nil && !errors.Is(err, context.DeadlineExceeded) {
				t.Errorf("%s: RunCtx error = %v, want context.DeadlineExceeded", c.name, err)
			}
			if n := algo.busy.Load(); n != 0 {
				t.Errorf("%s: %d Computes still running after RunCtx returned (err %v)", c.name, n, err)
			}
		}
	})
	requireNoLeak(t, before)
}

// panicAlgo stays put, except that robot victim's Compute panics.
type panicAlgo struct{ victim geom.Point }

type panicValue struct{ robot geom.Point }

func (panicAlgo) Name() string           { return "panic" }
func (panicAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (a panicAlgo) Compute(s model.Snapshot) model.Action {
	if s.Self.Pos.Eq(a.victim) {
		panic(panicValue{a.victim})
	}
	return model.Stay(s.Self.Pos, model.Off)
}

// lastPick records the scheduler's most recent choice and the stage the
// chosen robot was in, so a panic can be placed at its event.
type lastPick struct {
	sched.Scheduler
	robot, now int
	stage      sched.Stage
}

func (l *lastPick) Next(st []sched.Status, now int, rng *rand.Rand) int {
	r := l.Scheduler.Next(st, now, rng)
	l.robot, l.now, l.stage = r, now, st[r].Stage
	return r
}

// TestPipelinedComputePanicSurfaces: a Compute that panics on a worker
// re-panics on the caller's goroutine at that robot's Compute event —
// the same event, with the same value, as inline — after logging the
// worker's stack, which names the panicking frame; the workers are
// joined on the way out.
func TestPipelinedComputePanicSurfaces(t *testing.T) {
	var log bytes.Buffer
	defer func(w io.Writer) { computePanicLog = w }(computePanicLog)
	computePanicLog = &log

	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(2, 7)}
	algo := panicAlgo{victim: pts[3]}
	run := func() (v any, pick lastPick) {
		pick = lastPick{Scheduler: sched.NewAsyncRandom()}
		defer func() { v = recover() }()
		Run(algo, pts, DefaultOptions(&pick, 4))
		return nil, pick
	}
	before := runtime.NumGoroutine()
	var inV, pipeV any
	var inPick, pipePick lastPick
	withProcs(1, func() { inV, inPick = run() })
	if log.Len() != 0 {
		t.Fatalf("an inline panic logged a worker stack:\n%s", log.String())
	}
	withProcs(4, func() { pipeV, pipePick = run() })
	requireNoLeak(t, before)
	if got := log.String(); !strings.Contains(got, "sim.panicAlgo.Compute(") || !strings.Contains(got, "pipeline_test.go:") {
		t.Fatalf("the pipelined panic's log does not name the panicking frame:\n%s", got)
	}

	want := panicValue{pts[3]}
	if inV != want || pipeV != want {
		t.Fatalf("recovered %v inline, %v pipelined; want %v from both", inV, pipeV, want)
	}
	if pipePick.robot != 3 || pipePick.stage != sched.Looked {
		t.Fatalf("pipelined panic surfaced at robot %d in stage %v, want robot 3's Compute event", pipePick.robot, pipePick.stage)
	}
	if pipePick.now != inPick.now {
		t.Fatalf("pipelined panic surfaced at event %d, inline at %d", pipePick.now, inPick.now)
	}
}
