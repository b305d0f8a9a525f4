// Package rt realizes the asynchronous robots-with-lights model with
// real concurrency: one goroutine per robot, each free-running through
// Look-Compute-Move cycles with randomized delays between stages and
// between move sub-steps, over a mutex-guarded shared world. Where
// internal/sim *adversarially schedules* asynchrony event by event, rt
// lets the Go scheduler and timing jitter produce it — the same
// algorithm binary runs unmodified in both. Experiment F5 uses this
// runtime to show the algorithm tolerates genuine (not just simulated)
// interleavings and to measure wall-clock scaling.
package rt

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sync"
	"time"

	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sim"
)

// Options configures a concurrent run.
type Options struct {
	// Seed drives all per-robot randomized delays and the sensor jitter.
	Seed int64
	// MaxWall aborts the run after this wall-clock duration
	// (default 30s).
	MaxWall time.Duration
	// MeanDelay is the average sleep between LCM stages (default
	// 200µs). Larger values increase interleaving diversity and run
	// time alike.
	MeanDelay time.Duration
	// SubSteps is the number of sub-segments a move is split into, with
	// a sleep between each, so robots are routinely observed mid-move
	// (default 3).
	SubSteps int
	// CrashAfterCycles maps robot id → crash fault: the robot halts
	// forever once it has completed that many LCM cycles (0 halts it
	// before its first Look). A halted robot keeps its position and last
	// published light — frozen scenery that still obstructs visibility —
	// and the run then terminates on survivor-CV: mutual visibility among
	// the live robots only. At least one robot must stay alive.
	CrashAfterCycles map[int]int
	// SensorJitter, when positive, perturbs each coordinate every robot
	// *observes* during Look by a uniform error in [-SensorJitter,
	// +SensorJitter], the engine's sim.Jitter keyed by the robot's
	// completed cycles at the Look. Ground-truth positions are
	// untouched; only the snapshot handed to Compute lies.
	SensorJitter float64
	// Observer receives run callbacks, like sim.Options.Observer, with
	// two differences dictated by real concurrency: it MUST be
	// goroutine-safe (CycleEnd arrives from n robot goroutines, EpochEnd
	// from the monitor goroutine, concurrently), and only RunStart,
	// CycleEnd, EpochEnd and RunEnd are ever invoked — rt has no global
	// event clock, so Event, MoveEnd and ViolationFound never fire.
	// Callbacks run outside the world lock and may block without
	// stalling other robots; the `locksafe` analyzer (cmd/vislint)
	// enforces this contract statically across the package. Nil
	// disables observation at zero cost.
	Observer sim.Observer
}

// Result reports a concurrent run.
type Result struct {
	// Reached reports whether the swarm reached a stable Complete
	// Visibility configuration before MaxWall.
	Reached bool
	// Epochs counts completed epochs (every robot finished ≥ 1 cycle).
	Epochs int
	// Cycles is the total number of completed LCM cycles.
	Cycles int
	// Wall is the elapsed wall-clock time.
	Wall time.Duration
	// Crashed lists the robots halted by CrashAfterCycles, ascending.
	Crashed []int
	// Final is the terminal configuration.
	Final []geom.Point
	// FinalColors are the terminal lights.
	FinalColors []model.Color
}

// world is the shared state; every access goes through mu.
type world struct {
	mu  sync.Mutex
	pos []geom.Point
	col []model.Color
	// vis holds every robot's visibility row over pos. Positions change
	// only through moveLocked, which keeps it in step.
	vis *geom.Snapshot

	// changeSeq increments on every observable change (position or
	// color); robots record the sequence at Look so the monitor can
	// detect stability.
	changeSeq uint64
	// cleanLookSeq[i] is the changeSeq at the Look of robot i's last
	// completed cycle.
	cleanLookSeq []uint64
	// inFlight[i] marks robots between Compute-with-move and move end.
	inFlight []bool
	// cycles[i] counts completed cycles of robot i.
	cycles []int
	// crashed[i] marks robots halted by a crash fault; their goroutines
	// have exited and they are frozen scenery from then on.
	crashed []bool
}

// newWorld returns the world at the start configuration, its visibility
// rows held in a snapshot of kern.
func newWorld(kern *geom.Kernel, start []geom.Point) *world {
	n := len(start)
	pos := append([]geom.Point(nil), start...)
	vis := kern.NewSnapshot()
	vis.Reset(pos)
	cleanLookSeq := make([]uint64, n)
	for i := range cleanLookSeq {
		cleanLookSeq[i] = ^uint64(0) // never looked
	}
	return &world{
		pos:          pos,
		col:          make([]model.Color, n),
		vis:          vis,
		cleanLookSeq: cleanLookSeq,
		inFlight:     make([]bool, n),
		cycles:       make([]int, n),
		crashed:      make([]bool, n),
	}
}

// moveLocked places robot id at p; the caller holds w.mu. It is the only
// position write, so the visibility snapshot never goes stale.
func (w *world) moveLocked(id int, p geom.Point) {
	w.pos[id] = p
	w.vis.Update(id, p)
	w.changeSeq++
}

// Run executes algo from start with one goroutine per robot and returns
// when the swarm stabilizes in Complete Visibility or MaxWall elapses.
func Run(algo model.Algorithm, start []geom.Point, opt Options) (Result, error) {
	return RunCtx(context.Background(), algo, start, opt)
}

// RunCtx is Run with caller cancellation layered under the MaxWall
// clock: the run stops when the swarm stabilizes, MaxWall elapses, or
// parent is done — whichever comes first. A parent-initiated stop
// returns the partial result alongside parent's error; a nil parent
// behaves like Run.
func RunCtx(parent context.Context, algo model.Algorithm, start []geom.Point, opt Options) (Result, error) {
	if parent == nil {
		parent = context.Background()
	}
	if algo == nil {
		return Result{}, errors.New("rt: nil algorithm")
	}
	n := len(start)
	if n == 0 {
		return Result{}, errors.New("rt: empty start configuration")
	}
	if opt.MaxWall <= 0 {
		opt.MaxWall = 30 * time.Second
	}
	if opt.MeanDelay <= 0 {
		opt.MeanDelay = 200 * time.Microsecond
	}
	if opt.SubSteps <= 0 {
		opt.SubSteps = 3
	}
	if len(opt.CrashAfterCycles) >= n {
		return Result{}, fmt.Errorf("rt: crash faults on %d of %d robots leave no survivor",
			len(opt.CrashAfterCycles), n)
	}
	for id, after := range opt.CrashAfterCycles {
		if id < 0 || id >= n {
			return Result{}, fmt.Errorf("rt: crash fault names robot %d of %d", id, n)
		}
		if after < 0 {
			return Result{}, fmt.Errorf("rt: crash fault for robot %d after %d cycles", id, after)
		}
	}
	if opt.SensorJitter < 0 || math.IsNaN(opt.SensorJitter) || math.IsInf(opt.SensorJitter, 0) {
		return Result{}, fmt.Errorf("rt: sensor jitter %v is not a finite non-negative amplitude",
			opt.SensorJitter)
	}

	// One worker: Looks run serially under the world lock, so the
	// kernel never spawns a pool.
	kern := geom.NewKernel(1)
	defer kern.Close()
	w := newWorld(kern, start)

	ctx, cancel := context.WithTimeout(parent, opt.MaxWall)
	defer cancel()

	if opt.Observer != nil {
		opt.Observer.RunStart(sim.RunInfo{
			Algorithm: algo.Name(), Scheduler: "rt-async", N: n, Seed: opt.Seed,
		})
	}

	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			seed := int64(uint64(opt.Seed) ^ uint64(id)*0x9e3779b97f4a7c15)
			robotLoop(ctx, w, algo, id, rand.New(rand.NewSource(seed)), opt)
		}(i)
	}

	started := time.Now()
	res := monitor(ctx, w, n, opt.Observer)
	cancel()
	wg.Wait()

	res.Wall = time.Since(started)
	w.mu.Lock()
	res.Final = append([]geom.Point(nil), w.pos...)
	res.FinalColors = append([]model.Color(nil), w.col...)
	total := 0
	for _, c := range w.cycles {
		total += c
	}
	res.Cycles = total
	for i, c := range w.crashed {
		if c {
			res.Crashed = append(res.Crashed, i)
		}
	}
	w.mu.Unlock()
	abortErr := parent.Err()
	if opt.Observer != nil {
		// rt has no sim.Result of its own; RunEnd gets a partial one
		// carrying the fields both result types share.
		opt.Observer.RunEnd(&sim.Result{
			Algorithm: algo.Name(), Scheduler: "rt-async", N: n, Seed: opt.Seed,
			Reached: res.Reached, Epochs: res.Epochs, Cycles: res.Cycles,
		}, abortErr)
	}
	if abortErr != nil {
		return res, fmt.Errorf("rt: run aborted after %d epochs (%d cycles): %w",
			res.Epochs, res.Cycles, abortErr)
	}
	return res, nil
}

// robotLoop free-runs one robot's LCM cycles until the context ends.
func robotLoop(ctx context.Context, w *world, algo model.Algorithm, id int, rng *rand.Rand, opt Options) {
	nap := func() bool {
		d := time.Duration(rng.Int63n(int64(2*opt.MeanDelay) + 1))
		t := time.NewTimer(d)
		defer t.Stop()
		select {
		case <-ctx.Done():
			return false
		case <-t.C:
			return true
		}
	}
	crashAfter, hasCrash := -1, false
	if after, ok := opt.CrashAfterCycles[id]; ok {
		crashAfter, hasCrash = after, true
	}
	jitter := sim.Jitter{Seed: opt.Seed, Amp: opt.SensorJitter}
	// others backs each Look's snapshot: the robot's previous Compute,
	// the only reader, has returned by its next Look.
	var others []model.RobotView
	myCycles := 0
	for {
		// Explicit cancellation poll at the top of every cycle. nap()
		// also exits on ctx.Done, but that select lives inside a stored
		// closure where neither a reader skimming the loop nor the
		// goleak analyzer can see it; this check keeps the loop's exit
		// path on its own first line.
		if ctx.Err() != nil {
			return
		}
		if hasCrash && myCycles >= crashAfter {
			// Crash fault: halt forever at a cycle boundary, frozen with
			// the position and light already published. The monitor sees
			// the flag and stops waiting on this robot. The change bump
			// makes the crash observable: the cached CV verdict is
			// invalidated (the survivor set changed even though no point
			// moved) and stability then requires every survivor to have
			// looked at the post-crash world.
			w.mu.Lock()
			w.crashed[id] = true
			w.changeSeq++
			w.mu.Unlock()
			return
		}
		if !nap() {
			return
		}
		// Look: the row and views are copied out before the lock is
		// released. Pure computation — no channel operations or
		// callbacks (the 1-worker kernel never dispatches) — so it is
		// locksafe-clean under the world lock.
		w.mu.Lock()
		lookSeq := w.changeSeq
		snap := sim.Look(others, id, myCycles, w.vis.Row(id), false, w.pos, w.col, jitter, nil)
		w.mu.Unlock()
		others = snap.Others

		if !nap() {
			return
		}
		// Compute.
		act := algo.Compute(snap)

		// Publish the light.
		w.mu.Lock()
		if w.col[id] != act.Color {
			w.col[id] = act.Color
			w.changeSeq++
		}
		from := w.pos[id]
		moving := !act.IsStay(from)
		w.inFlight[id] = moving
		w.mu.Unlock()

		// Move in sub-steps.
		if moving {
			for s := 1; s <= opt.SubSteps; s++ {
				if !nap() {
					return
				}
				w.mu.Lock()
				w.moveLocked(id, from.Lerp(act.Target, float64(s)/float64(opt.SubSteps)))
				w.mu.Unlock()
			}
		}

		// Cycle complete.
		w.mu.Lock()
		w.inFlight[id] = false
		w.cleanLookSeq[id] = lookSeq
		w.cycles[id]++
		cyc := w.cycles[id]
		w.mu.Unlock()
		myCycles = cyc
		if opt.Observer != nil {
			// Outside the world lock: a slow observer must not serialize
			// the swarm. Event is the robot-local cycle ordinal — rt has
			// no global event clock.
			opt.Observer.CycleEnd(sim.CycleInfo{
				Event: cyc, Robot: id, Phase: sim.PhaseOf(act.Color), Moved: moving,
			})
		}
	}
}

// monitor watches for stability: Complete Visibility holds, nobody is in
// flight, and every robot has completed a cycle whose Look saw the final
// world version. It also accounts epochs, notifying obs (outside the
// world lock) at each boundary. Crashed robots are frozen scenery
// throughout: they cannot hold an epoch or stability open, and once any
// robot has crashed the terminal predicate becomes survivor-CV — mutual
// visibility among live robots, with the halted ones still obstructing.
func monitor(ctx context.Context, w *world, n int, obs sim.Observer) Result {
	res := Result{}
	// The CV check runs on a position copy outside the world lock, so
	// the kernel's worker fan-out (channel sends) never happens under
	// w.mu.
	kern := geom.NewKernel(0)
	defer kern.Close()
	epochMark := make([]int, n)
	tick := time.NewTicker(500 * time.Microsecond)
	defer tick.Stop()
	var lastSeqChecked uint64
	lastSeqChecked = ^uint64(0)
	cvCached := false
	var alive []bool
	for {
		select {
		case <-ctx.Done():
			return res
		case <-tick.C:
		}
		w.mu.Lock()
		// Epoch accounting over live robots only: a halted robot would
		// freeze the epoch clock forever.
		allCycled := true
		anyCrashed := false
		for i := 0; i < n; i++ {
			if w.crashed[i] {
				anyCrashed = true
				continue
			}
			if w.cycles[i] <= epochMark[i] {
				allCycled = false
				break
			}
		}
		if allCycled {
			copy(epochMark, w.cycles)
			res.Epochs++
		}
		epochDone := allCycled
		// Stability: no live robot in flight, all live clean looks at
		// the current world version.
		stable := true
		for i := 0; i < n && stable; i++ {
			if w.crashed[i] {
				continue
			}
			if w.inFlight[i] || w.cleanLookSeq[i] != w.changeSeq {
				stable = false
			}
		}
		var pos []geom.Point
		if stable {
			if w.changeSeq != lastSeqChecked {
				pos = append([]geom.Point(nil), w.pos...)
				if anyCrashed {
					alive = alive[:0]
					for i := 0; i < n; i++ {
						alive = append(alive, !w.crashed[i])
					}
				}
			}
		}
		seq := w.changeSeq
		w.mu.Unlock()

		if epochDone && obs != nil {
			// Only Epoch is meaningful here; rt tracks no per-phase or
			// hull breakdown at epoch granularity.
			obs.EpochEnd(sim.EpochSample{Epoch: res.Epochs})
		}
		if stable {
			if pos != nil {
				if len(alive) > 0 {
					// Survivor-CV, exact: the stable state is checked once
					// per world version, so the rational predicate's cost
					// is off the hot path.
					cvCached = exact.CompleteVisibilityAmong(pos, alive)
				} else {
					//lint:allow ctxflow kernel dispatch is bounded compute on an internal worker pool, not open-ended waiting; a ctx parameter would tax the hot path
					cvCached = kern.CompleteVisibilityFast(pos)
				}
				lastSeqChecked = seq
			}
			if cvCached {
				res.Reached = true
				return res
			}
		}
	}
}
