package sim

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"luxvis/internal/model"
)

// Compute pipelining. Robots are oblivious: model.Algorithm.Compute is a
// pure function of the snapshot taken at Look, so a robot's Compute may
// run at any time between its Look and its Compute event without
// changing the run. A run that can use a spare core therefore starts
// each Compute at the Look, on a per-run worker pool, and joins it at
// the Compute event; everything the Compute event does with the action
// (target and palette checks, light publish, move arming) stays on the
// Run goroutine in event order. Other runs compute inline at the
// Compute event. newComputePool decides which, from what the engine can
// see: the swarm size, GOMAXPROCS and the number of runs in flight in
// the process (RunCtx explains why observed runs always compute inline).

// pipelineMinRobots is the smallest swarm whose run pipelines Compute.
// Below it a Compute costs about as much as handing it to a worker and
// waking the Run goroutine for the result, so pipelining does not pay
// even on an idle core: on a 2-vCPU host LogVis lost at 32 robots, was
// mixed at 64 and won every pair at 96 and 128. A variable so that
// tests can pipeline small swarms.
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

// computePool runs robots' Computes on GOMAXPROCS workers. It is owned
// by one engine loop: submit, wait and close are called from the Run
// goroutine only.
//
// At most one Compute per robot is ever outstanding — a robot's next
// Look comes after the Compute event that waits for the previous one —
// so the job queue, buffered to the swarm size, and each robot's
// one-slot result channel never block a sender. A robot crashed while
// Looked leaves its result unread; close discards it.
type computePool struct {
	algo    model.Algorithm
	jobs    chan computeJob
	results []chan computeResult
	quit    chan struct{}
	wg      sync.WaitGroup
}

// computeJob is one robot's frozen snapshot awaiting its Compute.
type computeJob struct {
	robot int
	snap  model.Snapshot
}

// computeResult is a finished Compute: the action, or the non-nil
// value the Compute panicked with (recover never yields nil for a panic
// since Go 1.21) and the worker's stack at the panic.
type computeResult struct {
	act      model.Action
	panicVal any
	stack    []byte
}

// newComputePool returns a running pool for a swarm of n robots, or nil
// when the run should compute inline: the swarm is below
// pipelineMinRobots, or there are fewer than two procs (GOMAXPROCS) for
// each of the inFlight runs executing now, this one included.
func newComputePool(algo model.Algorithm, n int, inFlight int64) *computePool {
	workers := runtime.GOMAXPROCS(0)
	if n < pipelineMinRobots || int64(workers) < 2*inFlight {
		return nil
	}
	p := &computePool{
		algo:    algo,
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

// submit starts robot r's Compute on snapshot s.
func (p *computePool) submit(r int, s model.Snapshot) {
	p.jobs <- computeJob{robot: r, snap: s}
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
			p.results[j.robot] <- p.compute(j.snap)
		}
	}
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
