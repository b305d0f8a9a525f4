package sim

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// Look and Compute pipelining. Robots are oblivious: a Look is an
// instantaneous snapshot and model.Algorithm.Compute is a pure function
// of it, so both the snapshot's visibility row and the Compute may run
// at any time between the Look event and the Compute event, provided
// they read the world as it was at the Look. A run that can use a spare
// core therefore hands each Look to a per-run worker pool together with
// a copy of the world, and joins the Compute at the Compute event; the
// Look event's bookkeeping (stage, snapshot time, trace) and everything
// the Compute event does with the action (target and palette checks,
// light publish, move arming) stay on the Run goroutine in event order.
// The worker applies sensor jitter too, a function of the Look alone
// (see Jitter). While the engine knows the world to be completely
// visible, a job says that its robot sees every other robot, and the
// worker builds the snapshot without a visibility row (see knownCV).
// The job also carries the memo of the position state it was submitted
// in, which the worker's Look attaches to a full view exactly as an
// inline Look does (see Look and model.World): every full view between
// two moves shares one convex hull and one collinearity answer,
// whichever worker computes them first. Other runs look and compute
// inline. RunCtx decides which: a run with an Observer (see there)
// never pipelines, and newComputePool decides the rest from the swarm
// size, GOMAXPROCS and the number of runs in flight in the process.

// pipelineMinRobots is the smallest swarm whose run pipelines. Below it
// a Compute costs about as much as handing it to a worker and waking
// the Run goroutine for the result, so pipelining does not pay even on
// an idle core: on a 2-vCPU host LogVis lost at 32 robots, was mixed at
// 64 and won every pair at 96 and 128. A variable so that tests can
// pipeline small swarms.
var pipelineMinRobots = 96

// runsInFlight counts the RunCtx calls executing in this process. A
// pipelined run needs a core besides its own Run goroutine's; when the
// other runs already hold the cores — the experiment harness runs
// seeds in parallel — the handoff to a worker only adds CPU.
var runsInFlight atomic.Int64

// computePanicLog receives the worker's stack when a pipelined Compute
// panics, just before the panic is raised again on the Run goroutine,
// whose own trace ends in computePool.wait.
var computePanicLog io.Writer = os.Stderr

// computePool runs robots' Looks and Computes on GOMAXPROCS workers. It
// is owned by one engine loop: submit, wait and close are called from
// the Run goroutine only.
//
// At most one job per robot is ever outstanding — a robot's next Look
// comes after the Compute event that waits for the previous one — so
// the job queue, buffered to the swarm size, and each robot's one-slot
// result channel never block a sender. A robot crashed while Looked
// leaves its result unread; close discards it.
type computePool struct {
	algo    model.Algorithm
	jitter  Jitter
	jobs    chan computeJob
	results []chan computeResult
	quit    chan struct{}
	wg      sync.WaitGroup
}

// world is one Look's copy of the robots' positions and lights, and
// whether those positions are known to be completely visible, so that
// every robot sees all the others. submit fills it from the engine
// before queueing the job, and the worker returns it to worlds once the
// Look's row and Others are built.
type world struct {
	pos []geom.Point
	col []model.Color
	all bool
}

// worlds recycles world copies across Looks and runs, so a steady-state
// handoff allocates nothing.
var worlds = sync.Pool{New: func() any { return new(world) }}

// computeJob is one robot's Look awaiting its row and Compute; look is
// the robot's Look index and shared the memo of its position state (see
// Look).
type computeJob struct {
	robot, look int
	world       *world
	shared      *model.World
}

// computeResult is a finished Compute: the action, or the non-nil
// value the Compute panicked with (recover never yields nil for a panic
// since Go 1.21) and the worker's stack at the panic.
type computeResult struct {
	act      model.Action
	panicVal any
	stack    []byte
}

// looker is one worker's Look state: a visibility kernel, and the
// buffers it builds each Look's row and Others into. Lookers outlive
// their runs in lookers, so a worker's buffers are allocated once per
// process, not once per run.
type looker struct {
	vis    *geom.Kernel
	row    []int
	others []model.RobotView
}

// lookers holds idle lookers. Each looker's kernel has one worker, which
// computes on the caller's goroutine and never starts a pool, so a
// looker holds no resources beyond its memory and needs no Close.
var lookers = sync.Pool{New: func() any { return &looker{vis: geom.NewKernel(1)} }}

// newComputePool returns a running pool for a swarm of n robots whose
// Looks observe with jitter, or nil when the run should look and compute
// inline: the swarm is below pipelineMinRobots, or there are fewer than
// two procs (GOMAXPROCS) for each of the inFlight runs executing now,
// this one included.
func newComputePool(algo model.Algorithm, n int, inFlight int64, jitter Jitter) *computePool {
	workers := runtime.GOMAXPROCS(0)
	if n < pipelineMinRobots || int64(workers) < 2*inFlight {
		return nil
	}
	p := &computePool{
		algo:    algo,
		jitter:  jitter,
		jobs:    make(chan computeJob, n),
		results: make([]chan computeResult, n),
		quit:    make(chan struct{}),
	}
	for i := range p.results {
		p.results[i] = make(chan computeResult, 1)
	}
	p.wg.Add(workers)
	for w := 0; w < workers; w++ {
		go p.worker()
	}
	return p
}

// submit starts robot r's look-th Look and its Compute on a copy of pos
// and col, whose position state's memo is shared; all reports that r
// sees every other robot, so the worker builds no row.
func (p *computePool) submit(r, look int, pos []geom.Point, col []model.Color, all bool, shared *model.World) {
	w := worlds.Get().(*world)
	w.pos = append(w.pos[:0], pos...)
	w.col = append(w.col[:0], col...)
	w.all = all
	p.jobs <- computeJob{robot: r, look: look, world: w, shared: shared}
}

// wait returns robot r's action, blocking until its Compute finishes.
// A Compute that panicked re-panics here, on the caller's goroutine,
// with the same value, after writing the worker's stack (which names
// the faulting line) to computePanicLog.
func (p *computePool) wait(r int) model.Action {
	res := <-p.results[r]
	if res.panicVal != nil {
		fmt.Fprintf(computePanicLog, "sim: robot %d's Compute panicked on a compute worker: %v\n\n%s\n", r, res.panicVal, res.stack)
		panic(res.panicVal)
	}
	return res.act
}

// close stops the workers and waits for them to exit. Queued jobs are
// dropped; a Compute already running finishes first.
func (p *computePool) close() {
	close(p.quit)
	p.wg.Wait()
}

func (p *computePool) worker() {
	defer p.wg.Done()
	l := lookers.Get().(*looker)
	defer lookers.Put(l)
	for {
		// Check quit first so a closed pool stops at once instead of
		// draining jobs whose results nobody will read.
		select {
		case <-p.quit:
			return
		default:
		}
		select {
		case <-p.quit:
			return
		case j := <-p.jobs:
			s := l.look(j, p.jitter)
			worlds.Put(j.world)
			p.results[j.robot] <- p.compute(s)
		}
	}
}

// look builds job j's snapshot of its world. A job that sees every
// other robot needs no row; otherwise the worker's kernel computes it
// from the world's positions, exactly the row an inline Look of the
// same world reads. Others aliases the looker's buffer and is valid
// until the next look.
func (l *looker) look(j computeJob, jitter Jitter) model.Snapshot {
	w := j.world
	var row []int
	if !w.all {
		l.row = l.vis.VisibleRow(l.row, w.pos, j.robot)
		row = l.row
	}
	s := Look(l.others, j.robot, j.look, row, w.all, w.pos, w.col, jitter, j.shared)
	l.others = s.Others
	return s
}

// compute runs one Compute, capturing a panic as a result.
func (p *computePool) compute(s model.Snapshot) (res computeResult) {
	defer func() {
		if v := recover(); v != nil {
			res = computeResult{panicVal: v, stack: debug.Stack()}
		}
	}()
	return computeResult{act: p.algo.Compute(s)}
}
