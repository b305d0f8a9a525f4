// Package sim is the execution engine of the robots-with-lights model: it
// runs an Algorithm over a Scheduler, delivers snapshots with obstructed
// visibility, executes moves as interleavable sub-stepped segments,
// counts epochs, and verifies the safety properties the paper claims —
// no two robots ever share a position, no moving robot passes through
// another, and the paths of temporally overlapping moves never cross.
// Safety verdicts are confirmed with exact rational arithmetic, so a
// reported zero is not a tolerance artifact.
package sim

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"time"

	"luxvis/internal/geom"
	"luxvis/internal/grid"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// Options configures a run. The zero value is not runnable: a Scheduler
// is mandatory. Use DefaultOptions for sensible defaults.
type Options struct {
	// Scheduler decides the activation order (required).
	Scheduler sched.Scheduler
	// Seed drives every random choice of the run (scheduler and
	// non-rigid truncation). Runs are reproducible per (algorithm,
	// start, Options).
	Seed int64
	// MaxEpochs aborts the run after this many epochs (default 4096).
	MaxEpochs int
	// MaxEvents is a hard event-count cap (default derived from
	// MaxEpochs and the swarm size).
	MaxEvents int
	// NonRigid enables the non-rigid motion adversary: each move may be
	// truncated to a random fraction of its segment, at least
	// MinMoveFrac. The paper assumes rigid moves; this is a stress mode.
	NonRigid bool
	// MinMoveFrac is the guaranteed fraction of a non-rigid move
	// (default 0.3). Values outside (0, 1] are clamped.
	MinMoveFrac float64
	// NonRigidDist selects the truncation-fraction distribution when
	// NonRigid is set. The empty default is NonRigidUniform and replays
	// historical seeds byte-for-byte; see NonRigidDists for the rest.
	NonRigidDist NonRigidDist
	// Crashes schedules fail-stop faults (see CrashSpec). Crashed robots
	// freeze in place with their last published light and stay visible
	// to survivors; the run's terminal predicate becomes Complete
	// Visibility among survivors, with crashed robots still obstructing.
	Crashes []CrashSpec
	// SensorJitter, when positive, perturbs every observed position in a
	// snapshot's Others by a uniform offset in [-SensorJitter,
	// +SensorJitter] per coordinate. Only observations are perturbed —
	// the world, the trace, and all safety checks see exact positions.
	// Each offset is a hash of the Seed and the observation (see
	// Jitter), so jitter draws nothing from the scheduler's stream and a
	// jittered run pipelines like any other.
	SensorJitter float64
	// SkipSafetyChecks disables collision and path-crossing
	// verification (for raw-throughput benchmarks only).
	SkipSafetyChecks bool
	// RecordTrace retains a full event trace in the Result.
	RecordTrace bool
	// SampleEpochs records one EpochSample per epoch boundary in the
	// Result — the convergence dynamics (hull composition and movement
	// per epoch) behind the F7 figure.
	SampleEpochs bool
	// Observer, when non-nil, receives engine callbacks while the run
	// executes (see the Observer interface). A nil Observer is the
	// benchmark path: disabled observation costs one branch per event,
	// and a run of at least 96 robots with two procs (GOMAXPROCS) to
	// itself hands each robot's Look and Compute to a per-run worker
	// pool at its Look event (see pipeline.go). With an Observer
	// attached, Looks and Computes run inline at their events, so for
	// such runs the gap between a nil and a no-op Observer includes the
	// pipelining gain, and epoch-boundary samples are computed even
	// when SampleEpochs is false (they feed EpochEnd).
	Observer Observer
}

// Engine defaults, applied by RunCtx to zero Options fields. Exported
// so API layers (internal/serve) can canonicalize a request with
// explicit default values to the same run identity as one that omits
// them.
const (
	// DefaultMaxEpochs is the epoch cap when Options.MaxEpochs is zero.
	DefaultMaxEpochs = 4096
	// DefaultMinMoveFrac is the guaranteed non-rigid move fraction when
	// Options.MinMoveFrac is unset or out of range.
	DefaultMinMoveFrac = 0.3
)

// DefaultOptions returns Options with the given scheduler and seed and
// all defaults filled in.
func DefaultOptions(s sched.Scheduler, seed int64) Options {
	return Options{Scheduler: s, Seed: seed, MaxEpochs: DefaultMaxEpochs, MinMoveFrac: DefaultMinMoveFrac}
}

// ViolationKind classifies a safety violation.
type ViolationKind string

// Violation kinds reported by the engine.
const (
	// VColocation: two robots at the same exact position.
	VColocation ViolationKind = "colocation"
	// VPassThrough: a moving robot's sub-step passed exactly through
	// another robot's position.
	VPassThrough ViolationKind = "pass-through"
	// VPathCross: two temporally overlapping moves with properly
	// crossing (or collinearly overlapping) path segments.
	VPathCross ViolationKind = "path-cross"
	// VPalette: an algorithm set a color outside its declared palette.
	VPalette ViolationKind = "palette"
	// VBadTarget: an algorithm computed a non-finite target.
	VBadTarget ViolationKind = "bad-target"
)

// Violation is one detected safety violation.
type Violation struct {
	Kind   ViolationKind
	Event  int
	Robots [2]int
	Detail string
}

func (v Violation) String() string {
	return fmt.Sprintf("%s at event %d robots %v: %s", v.Kind, v.Event, v.Robots, v.Detail)
}

// EpochSample is the aggregate state at one epoch boundary (only with
// Options.SampleEpochs).
type EpochSample struct {
	Epoch int
	// Corners, EdgeRobots and Interior partition the swarm by global
	// hull classification at the boundary.
	Corners    int
	EdgeRobots int
	Interior   int
	// MovesSoFar is the cumulative count of completed relocations.
	MovesSoFar int
	// CV reports whether Complete Visibility held at the boundary.
	CV bool
	// Phases counts the LCM cycles completed during this epoch (since
	// the previous boundary), bucketed by phase attribution — the
	// per-epoch decomposition of where the run's work went.
	Phases [NumPhases]int
	// PhaseMoves counts the subset of those cycles that relocated the
	// robot; PhaseMoves[PhaseInterior] is the epoch's BDCP flights.
	PhaseMoves [NumPhases]int
}

// TraceEvent is one recorded engine event (only with RecordTrace).
type TraceEvent struct {
	Event int
	Robot int
	Kind  string // "look", "compute", "step", "crash"
	Pos   geom.Point
	Color model.Color
	// Epoch is the number of epochs completed when the event fired
	// (events during the first epoch carry 0). It gives trace consumers
	// — the replay stream's ?from=epoch seek in particular — an exact
	// epoch index without re-deriving boundaries from the event order.
	Epoch int
}

// Result summarizes a run.
type Result struct {
	Algorithm string
	Scheduler string
	N         int
	Seed      int64

	// Reached reports whether the run terminated in a quiescent
	// Complete Visibility configuration (verified exactly). On a run
	// with fired crash faults the predicate is Complete Visibility among
	// survivors, with crashed robots still acting as obstructions.
	Reached bool
	// Crashed lists the robots halted by fired crash faults, ascending.
	// Specs that never fired (stage never revisited) are not included.
	Crashed []int
	// Epochs is the number of completed epochs at quiescence (or at
	// abort). An epoch is a minimal span in which every robot completes
	// at least one full LCM cycle.
	Epochs int
	// FirstCVEpoch is the first epoch boundary at which Complete
	// Visibility held, or -1.
	FirstCVEpoch int
	// Rounds is the scheduler's own round count where the scheduler
	// defines rounds (SSYNC), else 0.
	Rounds int

	Events int
	Cycles int
	// Moves counts cycles with non-zero displacement.
	Moves int
	// TotalDist is the summed path length of all moves.
	TotalDist float64
	// MaxRobotDist is the largest total distance moved by any single robot.
	MaxRobotDist float64
	// ColorsUsed is the number of distinct colors ever shown.
	ColorsUsed int

	// PhaseCycles buckets every completed LCM cycle by phase
	// attribution (see PhaseOf); the counters sum to Cycles for runs
	// that end on cycle boundaries.
	PhaseCycles [NumPhases]int
	// PhaseMoves buckets the cycles with non-zero displacement; the
	// counters sum to Moves.
	PhaseMoves [NumPhases]int

	Collisions    int
	PathCrossings int
	Violations    []Violation

	Final       []geom.Point
	FinalColors []model.Color
	MinPairDist float64

	Trace []TraceEvent
	// EpochSamples has one entry per epoch boundary (SampleEpochs only).
	EpochSamples []EpochSample

	// Kernel reports the visibility kernel's work counters for the run.
	// They are diagnostics: two runs of the same inputs may report
	// different counters (see KernelStats), so a determinism comparison
	// leaves Kernel out.
	Kernel KernelStats
}

// KernelStats summarizes the visibility kernel's work during a run: how
// many rows the engine built and how many it served again unchanged,
// and where the geometry time went. The nanosecond counters are
// collected only when an Observer is attached — the benchmark path (nil
// Observer) pays no clock reads.
//
// The row counters count the engine's own rows (see engine.row), which
// serve inline Looks and the survivor Complete Visibility reads of
// crash runs; for an inline run they are a function of the run's
// inputs. A Look taken while the world is known to be completely
// visible sees every other robot without a row and counts none. A
// pipelined run (see pipeline.go) builds its Looks' rows on the compute
// workers and counts none of them either, and whether a run pipelines
// depends on GOMAXPROCS and on the runs in flight, not on the run's
// inputs. So two runs of the same inputs may report different row
// counters; every other field of the Result is the same, sensor jitter
// included.
type KernelStats struct {
	// RowsComputed counts visibility rows built with Kernel.VisibleRow.
	RowsComputed int64
	// RowsReused counts rows served again because no robot had moved
	// since the row was built.
	RowsReused int64
	// CVChecks counts Complete Visibility evaluations (cache misses of
	// the per-world-version CV cache), also those answered without a
	// scan because the world is known to be completely visible.
	CVChecks int64
	// LookNanos and CVNanos are the wall time spent in Look rows
	// and CV checks (zero without an Observer).
	LookNanos int64
	CVNanos   int64
}

// movePlan is a robot's in-flight relocation.
type movePlan struct {
	from, target geom.Point
	stepsTotal   int
	stepsDone    int
	startEvent   int
	// lookEvent is when the snapshot that decided this move was taken;
	// two moves are treated as concurrent when either's cycle span
	// (Look to move end) overlaps the other's motion.
	lookEvent int
	// lastStep is the event of the most recent executed sub-step: the
	// moment the executed segment last grew. A move interrupted by a
	// crash or the event budget ends *there* for concurrency purposes —
	// between lastStep and the interruption the robot changed nothing.
	lastStep int
}

// doneMove is a completed move retained for the concurrency-aware
// path-crossing check until no in-progress cycle can overlap it.
type doneMove struct {
	robot     int
	seg       geom.Segment
	lookEvent int
	endEvent  int
}

// engine is the mutable state of one run.
type engine struct {
	algo model.Algorithm
	opt  Options
	rng  *rand.Rand
	// obs is Options.Observer, hoisted for the per-event nil check.
	obs Observer

	// ctx is polled at epoch boundaries only (see loop); ctxErr records
	// the cancellation cause when the run was aborted early.
	ctx    context.Context
	ctxErr error

	pos []geom.Point
	// vk is the run's visibility kernel. rows[r] is robot r's last
	// visibility row, built at position generation rowGen[r]. posGen
	// starts at 1 and doMoveStep, the one position write, bumps it, so a
	// row whose rowGen equals posGen is current (see row).
	vk     *geom.Kernel
	rows   [][]int
	rowGen []uint64
	posGen uint64
	col    []model.Color
	st     []sched.Status
	snap   []model.Snapshot
	act    []model.Action
	plan   []movePlan

	palette map[model.Color]bool

	now        int
	lastChange int
	// snapLook[i] is the event index at which robot i's currently held
	// snapshot was taken (valid for stages past Idle).
	snapLook []int
	// lastCleanLook[i] is the Look event index of robot i's most
	// recently completed cycle.
	lastCleanLook []int

	epochBase []int
	epochs    int
	// phaseEpoch and phaseMoveEpoch accumulate the current epoch's
	// per-phase cycle and move counts; reset at each boundary.
	phaseEpoch     [NumPhases]int
	phaseMoveEpoch [NumPhases]int

	cvCacheAt  int // lastChange value the cache refers to, -1 = invalid
	cvCacheVal bool

	res Result

	robotDist []float64
	colorMask uint32

	// recentMoves are ended moves that may still overlap an in-progress
	// cycle (see doneMove). Path-crossing pairs are examined when the
	// later of the two moves ends, so every check sees executed
	// segments — for a crash-interrupted move the traveled prefix, not
	// the planned path — and the engine's verdict matches what
	// verify.Audit reconstructs from the trace.
	recentMoves []doneMove
	// idx is the spatial index over current positions, used to filter
	// the per-sub-step collision scan (nil with SkipSafetyChecks).
	idx *grid.Index
	// nearBuf is the reusable candidate buffer for idx queries.
	nearBuf []int

	// Crash-fault state (see stressors.go). crashed is nil until the
	// first fault fires; numCrashed gates every crash-aware branch so a
	// clean run pays one predictable comparison.
	crashed      []bool
	numCrashed   int
	crashPending []CrashSpec
	// aliveIdx maps compacted survivor indices (what the scheduler sees
	// after a crash) back to engine robot indices; stBuf is the reusable
	// compacted status view.
	aliveIdx []int
	stBuf    []sched.Status
	// jitter is the run's sensor jitter (Options.Seed and SensorJitter).
	jitter Jitter
	// pool runs Looks and Computes off the event loop, started at the
	// Look event and joined at the Compute event (see pipeline.go); nil
	// looks and computes inline.
	pool *computePool
	// world is the memo of the current position state, which Look
	// attaches to full views (see model.World). doMoveStep, the one
	// place a position changes, drops it, and the next Look starts a
	// new one.
	world *model.World
	// cvKnown records that the current positions are known to be
	// completely visible, with every triple non-collinear under all
	// three anchors (see DESIGN.md, "Known complete visibility"): every
	// Look's row is then all the other robots, and cvNow answers true
	// without a scan. cvNow sets it when its full check finds Complete
	// Visibility. While it holds, doMoveStep marks each robot that moves
	// in unchecked and counts it once in numUnchecked, and knownCV checks
	// each marked robot at its current position before the next Look or
	// cvNow relies on the flag; a failed check clears it until a full
	// check sets it again.
	cvKnown      bool
	unchecked    []bool
	numUnchecked int
}

// Run executes algo from the start configuration under opt and returns
// the result. It returns an error for invalid inputs (fewer than one
// robot, duplicate or non-finite start positions, missing scheduler);
// safety violations during the run do not error — they are counted and
// reported in the Result, because counting them is the experiment.
func Run(algo model.Algorithm, start []geom.Point, opt Options) (Result, error) {
	return RunCtx(context.Background(), algo, start, opt)
}

// RunCtx is Run with caller-controlled cancellation: when ctx is
// cancelled or its deadline passes, the run aborts at the next epoch
// boundary and RunCtx returns the partial Result accumulated so far
// together with an error wrapping ctx.Err() (test with errors.Is
// against context.Canceled / context.DeadlineExceeded).
//
// Cancellation is observed only at epoch boundaries, never mid-epoch:
// an epoch is the engine's unit of algorithmic progress (every robot
// completed at least one full LCM cycle), so aborting there leaves the
// Result's epoch-granular metrics (Epochs, FirstCVEpoch, EpochSamples)
// internally consistent and keeps the partial run a faithful prefix of
// the deterministic seed-keyed execution — rerunning the same
// (algorithm, start, Options) without a deadline replays the identical
// prefix event for event.
func RunCtx(ctx context.Context, algo model.Algorithm, start []geom.Point, opt Options) (Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if algo == nil {
		return Result{}, errors.New("sim: nil algorithm")
	}
	if opt.Scheduler == nil {
		return Result{}, errors.New("sim: Options.Scheduler is required")
	}
	n := len(start)
	if n == 0 {
		return Result{}, errors.New("sim: empty start configuration")
	}
	for i, p := range start {
		if !p.IsFinite() {
			return Result{}, fmt.Errorf("sim: non-finite start position %d", i)
		}
		for j := i + 1; j < n; j++ {
			if p.Eq(start[j]) {
				return Result{}, fmt.Errorf("sim: duplicate start positions %d and %d", i, j)
			}
		}
	}
	if opt.MaxEpochs <= 0 {
		opt.MaxEpochs = DefaultMaxEpochs
	}
	if opt.MaxEvents <= 0 {
		opt.MaxEvents = DefaultMaxEvents(opt.MaxEpochs, n)
	}
	// The !(inside) form also catches NaN, which would otherwise slip
	// through both comparisons and poison every Lerp of the run.
	if !(opt.MinMoveFrac > 0 && opt.MinMoveFrac <= 1) {
		opt.MinMoveFrac = DefaultMinMoveFrac
	}
	if err := validateStressors(&opt, n); err != nil {
		return Result{}, err
	}

	e := &engine{
		algo:          algo,
		ctx:           ctx,
		opt:           opt,
		obs:           opt.Observer,
		rng:           rand.New(rand.NewSource(opt.Seed)),
		pos:           append([]geom.Point(nil), start...),
		rows:          make([][]int, n),
		rowGen:        make([]uint64, n),
		posGen:        1,
		col:           make([]model.Color, n),
		st:            make([]sched.Status, n),
		snap:          make([]model.Snapshot, n),
		act:           make([]model.Action, n),
		plan:          make([]movePlan, n),
		palette:       map[model.Color]bool{model.Off: true},
		snapLook:      make([]int, n),
		lastCleanLook: make([]int, n),
		epochBase:     make([]int, n),
		cvCacheAt:     -1,
		robotDist:     make([]float64, n),
		unchecked:     make([]bool, n),
		jitter:        Jitter{Seed: opt.Seed, Amp: opt.SensorJitter},
	}
	if len(opt.Crashes) > 0 {
		e.crashPending = append([]CrashSpec(nil), opt.Crashes...)
	}
	for _, c := range algo.Palette() {
		e.palette[c] = true
	}
	for i := range e.st {
		e.st[i].LastEvent = -1
		e.lastCleanLook[i] = -1
		e.snapLook[i] = -1
	}
	e.colorMask = 1 << uint(model.Off)
	e.vk = geom.NewKernel(0)
	defer e.vk.Close()
	e.res = Result{
		Algorithm:    algo.Name(),
		Scheduler:    opt.Scheduler.Name(),
		N:            n,
		Seed:         opt.Seed,
		FirstCVEpoch: -1,
	}
	opt.Scheduler.Reset(n)
	if !opt.SkipSafetyChecks {
		e.idx = grid.NewFor(e.pos)
	}

	inFlight := runsInFlight.Add(1)
	defer runsInFlight.Add(-1)
	// Observed runs look and compute inline. The Observer itself never
	// calls Compute; the condition exists for perfbench's traced run,
	// whose timing decorator around the algorithm shares a cursor with
	// its Observer and is not safe to call concurrently. perfbench is
	// frozen while performance claims are measured against it, so the
	// condition stays until that tracer is made concurrency-safe
	// (ROADMAP item 1).
	if e.obs == nil {
		e.pool = newComputePool(algo, n, inFlight, e.jitter)
	}
	if e.pool != nil {
		defer e.pool.close()
	}
	if e.obs != nil {
		e.obs.RunStart(RunInfo{Algorithm: e.res.Algorithm, Scheduler: e.res.Scheduler, N: n, Seed: opt.Seed})
	}
	// A context that is already dead aborts before the first event (the
	// first epoch of a large swarm is itself expensive).
	if err := ctx.Err(); err != nil {
		e.ctxErr = err
	} else {
		e.loop()
	}
	e.finish()
	if e.obs != nil {
		e.obs.RunEnd(&e.res, e.ctxErr)
	}
	if e.ctxErr != nil {
		return e.res, fmt.Errorf("sim: run aborted after %d epochs (%d events): %w",
			e.res.Epochs, e.res.Events, e.ctxErr)
	}
	return e.res, nil
}

// loop is the main event loop.
func (e *engine) loop() {
	checkedEpoch := 0
	for e.now < e.opt.MaxEvents && e.epochs < e.opt.MaxEpochs {
		if len(e.crashPending) > 0 {
			// Faults fire before the quiescence check so a crash that
			// completes survivor-CV terminates the run at this event.
			e.fireCrashes()
		}
		if e.quiescent() {
			e.res.Reached = true
			return
		}
		r := e.nextRobot()
		e.advance(r)
		e.now++
		e.st[r].LastEvent = e.now
		e.accountEpoch()
		// Poll for cancellation exactly once per completed epoch — the
		// engine's safe abort points (see RunCtx).
		if e.epochs != checkedEpoch {
			checkedEpoch = e.epochs
			if err := e.ctx.Err(); err != nil {
				e.ctxErr = err
				return
			}
		}
	}
}

// advance executes one micro-event for robot r, determined by its stage.
func (e *engine) advance(r int) {
	switch e.st[r].Stage {
	case sched.Idle:
		e.doLook(r)
	case sched.Looked:
		e.doCompute(r)
	case sched.Computed, sched.Moving:
		e.doMoveStep(r)
	}
}

// doLook takes robot r's snapshot of the current world. A pipelined run
// hands the pool a copy of the world, from which a worker builds the
// snapshot.
func (e *engine) doLook(r int) {
	if e.world == nil {
		e.world = new(model.World)
	}
	if e.pool != nil {
		e.pool.submit(r, e.st[r].Cycles, e.pos, e.col, e.knownCV(), e.world)
	} else {
		e.look(r)
	}
	e.st[r].Stage = sched.Looked
	e.snapLook[r] = e.now
	e.trace(r, "look")
}

// look builds robot r's snapshot in the backing array of r's previous
// Others, which no Compute still reads: r's last Compute returned before
// its Compute event. While the world is known to be completely visible r
// sees every other robot; otherwise it sees its row (see row).
func (e *engine) look(r int) {
	var t0 time.Time
	if e.obs != nil {
		//lint:allow detsource observer-gated timing counter; never influences control flow
		t0 = time.Now()
	}
	all := e.knownCV()
	var row []int
	if !all {
		row = e.row(r)
	}
	if e.obs != nil {
		//lint:allow detsource observer-gated timing counter; never influences control flow
		e.res.Kernel.LookNanos += time.Since(t0).Nanoseconds()
	}
	e.snap[r] = Look(e.snap[r].Others, r, e.st[r].Cycles, row, all, e.pos, e.col, e.jitter, e.world)
}

// row returns robot r's visibility row over the current positions. It
// rebuilds the row into r's own buffer only when a robot has moved since
// it was built; otherwise it serves the row again, which a robot that
// looks after mere light changes does. The row stays valid until the
// next row(r).
func (e *engine) row(r int) []int {
	if e.rowGen[r] == e.posGen {
		e.res.Kernel.RowsReused++
		return e.rows[r]
	}
	e.rows[r] = e.vk.VisibleRow(e.rows[r], e.pos, r)
	e.rowGen[r] = e.posGen
	e.res.Kernel.RowsComputed++
	return e.rows[r]
}

// knownCV reports whether the current positions are known to be
// completely visible. It first checks each robot that moved since the
// last call with Kernel.ClearAround, at its current position, and
// forgets the knowledge at the first robot that fails.
func (e *engine) knownCV() bool {
	if e.numUnchecked > 0 {
		for m, u := range e.unchecked {
			if u {
				e.unchecked[m] = false
				e.cvKnown = e.cvKnown && e.vk.ClearAround(e.pos, m)
			}
		}
		e.numUnchecked = 0
	}
	return e.cvKnown
}

// Look assembles robot r's snapshot of the world pos and col: Self is r,
// exact, and Others maps r's visibility row (indices into pos) to views,
// in row order, with jitter applied to each position. all reports that r
// sees every other robot, as it does while the world is known to be
// completely visible; Others then lists every robot but r in index
// order, which is the row VisibleSetFast returns there, and row is not
// read. look is r's Look index, the cycles it had completed at the
// Look, which keys the jitter. Others is built in the backing array of
// others, which the caller must no longer read. Every Look the engine,
// its compute workers and the goroutine runtime (internal/rt) take goes
// through here.
//
// w is the memo of the position state pos (nil for none). Look attaches
// it only to a full view, one that holds every other robot and whose
// positions carry no jitter, so every snapshot that shares w has the
// point multiset pos (see model.World).
func Look(others []model.RobotView, r, look int, row []int, all bool, pos []geom.Point, col []model.Color, jitter Jitter, w *model.World) model.Snapshot {
	others = others[:0]
	if all {
		for j := range pos {
			if j != r {
				others = append(others, model.RobotView{Pos: pos[j], Color: col[j]})
			}
		}
	} else {
		for _, j := range row {
			others = append(others, model.RobotView{Pos: pos[j], Color: col[j]})
		}
	}
	s := model.Snapshot{Self: model.RobotView{Pos: pos[r], Color: col[r]}, Others: others}
	if jitter.Amp > 0 {
		key := jitter.lookKey(r, look)
		for k := range others {
			others[k].Pos.X += jitter.offset(key, k, 0)
			others[k].Pos.Y += jitter.offset(key, k, 1)
		}
	} else if len(others) == len(pos)-1 {
		s.World = w
	}
	return s
}

// doCompute runs the algorithm on robot r's held snapshot (or joins the
// pipelined Compute started at its Look), publishes the light, and
// either completes the cycle (stay) or arms a move.
func (e *engine) doCompute(r int) {
	var a model.Action
	if e.pool != nil {
		a = e.pool.wait(r)
	} else {
		a = e.algo.Compute(e.snap[r])
	}
	if !a.Target.IsFinite() {
		e.violate(VBadTarget, r, r, fmt.Sprintf("target %v", a.Target))
		a.Target = e.pos[r]
	}
	if !e.palette[a.Color] {
		e.violate(VPalette, r, r, fmt.Sprintf("undeclared color %v", a.Color))
	}
	e.act[r] = a
	if a.Color != e.col[r] {
		e.col[r] = a.Color
		e.colorMask |= 1 << uint(a.Color)
		e.noteChange()
	}
	e.trace(r, "compute")
	if a.IsStay(e.pos[r]) {
		e.completeCycle(r, false)
		return
	}
	target := a.Target
	if e.opt.NonRigid {
		// The motion adversary may stop the robot anywhere past the
		// guaranteed fraction of its intended segment; the distribution
		// of the fraction is an Options knob (see NonRigidDist).
		f := e.drawMoveFrac()
		if f < 1 {
			target = e.pos[r].Lerp(a.Target, f)
		}
	}
	steps := e.opt.Scheduler.MoveSteps(e.rng)
	if steps < 1 {
		steps = 1
	}
	e.plan[r] = movePlan{from: e.pos[r], target: target, stepsTotal: steps, startEvent: e.now, lookEvent: e.snapLook[r]}
	e.st[r].Stage = sched.Computed
	e.st[r].StepsLeft = steps
}

// doMoveStep advances robot r one sub-step along its planned segment.
func (e *engine) doMoveStep(r int) {
	p := &e.plan[r]
	if e.st[r].Stage == sched.Computed {
		// First step: the move becomes active. Its path-crossing check is
		// deferred to the move's end (see endMove), when the executed
		// segment is known.
		e.st[r].Stage = sched.Moving
	}
	p.stepsDone++
	e.st[r].StepsLeft--
	old := e.pos[r]
	t := float64(p.stepsDone) / float64(p.stepsTotal)
	next := p.from.Lerp(p.target, t)
	if p.stepsDone >= p.stepsTotal {
		next = p.target
	}
	if !e.opt.SkipSafetyChecks {
		e.checkSubStep(r, old, next)
	}
	p.lastStep = e.now
	e.pos[r] = next
	e.posGen++
	e.world = nil
	if e.cvKnown && !e.unchecked[r] {
		e.unchecked[r] = true
		e.numUnchecked++
	}
	if e.idx != nil {
		e.idx.Move(r, next)
	}
	e.noteChange()
	e.trace(r, "step")
	if p.stepsDone >= p.stepsTotal {
		d := p.from.Dist(p.target)
		e.res.Moves++
		e.res.TotalDist += d
		e.robotDist[r] += d
		if !e.opt.SkipSafetyChecks {
			e.endMove(r, geom.Seg(p.from, p.target), p.lookEvent, p.lastStep)
			e.pruneRecentMoves()
		}
		if e.obs != nil {
			e.obs.MoveEnd(MoveInfo{Event: e.now, Robot: r, From: p.from, To: p.target, Dist: d})
		}
		e.completeCycle(r, true)
	}
}

// completeCycle finishes robot r's LCM cycle and attributes it to an
// algorithm phase via the light the cycle published.
func (e *engine) completeCycle(r int, moved bool) {
	e.st[r].Stage = sched.Idle
	e.st[r].StepsLeft = 0
	e.st[r].Cycles++
	e.res.Cycles++
	ph := PhaseOf(e.col[r])
	e.res.PhaseCycles[ph]++
	e.phaseEpoch[ph]++
	if moved {
		e.res.PhaseMoves[ph]++
		e.phaseMoveEpoch[ph]++
	}
	// Remember when the completed cycle's snapshot was taken: quiescence
	// requires every robot to have completed a cycle whose Look happened
	// after the last world change.
	e.lastCleanLook[r] = e.snapLook[r]
	if e.obs != nil {
		e.obs.CycleEnd(CycleInfo{Event: e.now, Robot: r, Phase: ph, Moved: moved})
	}
}

// violate records a safety violation.
func (e *engine) violate(kind ViolationKind, a, b int, detail string) {
	v := Violation{Kind: kind, Event: e.now, Robots: [2]int{a, b}, Detail: detail}
	e.res.Violations = append(e.res.Violations, v)
	switch kind {
	case VColocation, VPassThrough:
		e.res.Collisions++
	case VPathCross:
		e.res.PathCrossings++
	}
	if e.obs != nil {
		e.obs.ViolationFound(v)
	}
}

// noteChange marks the world as changed at the current event.
func (e *engine) noteChange() {
	e.lastChange = e.now
}

// trace records a trace event when enabled and feeds the observer's
// event stream. Both branches are the disabled fast path: a run with no
// observer and no trace pays two predictable not-taken branches.
func (e *engine) trace(r int, kind string) {
	if e.obs != nil {
		e.obs.Event(TraceEvent{Event: e.now, Robot: r, Kind: kind, Pos: e.pos[r], Color: e.col[r], Epoch: e.epochs})
	}
	if !e.opt.RecordTrace {
		return
	}
	e.res.Trace = append(e.res.Trace, TraceEvent{
		Event: e.now, Robot: r, Kind: kind, Pos: e.pos[r], Color: e.col[r], Epoch: e.epochs,
	})
}
