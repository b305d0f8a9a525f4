package main

import (
	"math/rand"
	"time"

	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// span names one slice of a traced engine run. The tracer keeps a single
// cursor: every boundary it sees (a decorator entry or exit, an observer
// callback) closes the interval since the previous boundary and books it
// to one span, so the spans partition the traced wall time exactly.
type span int

const (
	// spanNext is time inside sched.Scheduler.Next.
	spanNext span = iota
	// spanCompute is time inside model.Algorithm.Compute.
	spanCompute
	// spanLook is scheduler pick → "look" event: the visibility row
	// (Result.Kernel.LookNanos) plus assembling the snapshot.
	spanLook
	// spanStep is scheduler pick → "step" event: sub-step safety check
	// (grid filter, exact pass-through confirm), snapshot update.
	spanStep
	// spanMoveEnd is the final "step" event → MoveEnd: path-crossing
	// checks of the ended move and pruning.
	spanMoveEnd
	// spanLoop is every interval that ends at the next scheduler pick or
	// at an epoch boundary: quiescence scan, epoch accounting, the epoch
	// sample an attached observer forces, and the CV checks made there
	// (Result.Kernel.CVNanos).
	spanLoop
	// spanFinish is the last callback before RunEnd → RunEnd: the
	// engine's finish, including its exact terminal confirmation.
	spanFinish
	// spanOther is every remaining engine interval (input validation,
	// compute bookkeeping, cycle completion).
	spanOther
	// spanObs is time inside this tracer's own callbacks.
	spanObs
	numSpans
)

// phase remembers what the engine did at the previous boundary, which
// decides where an interval that ends at an event callback belongs.
type phase int

const (
	phaseIdle      phase = iota
	phasePicked          // sched.Next returned; the robot's event runs next
	phaseAfterStep       // a "step" event fired; MoveEnd may follow
)

// layerTimes is the traced split of a batch of engine runs.
type layerTimes struct {
	span [numSpans]time.Duration
	// wall is the summed duration of the traced sim.Run calls.
	wall time.Duration

	nextCalls    int64
	computeCalls int64
	// computeMoves counts Compute calls whose action relocates the robot.
	computeMoves int64

	look, cv                  time.Duration
	rowsComputed, rowsReused  int64
	cvChecks                  int64
	confirm                   time.Duration
	confirmRuns, finishWithCV int
}

func (l *layerTimes) add(o layerTimes) {
	for i := range l.span {
		l.span[i] += o.span[i]
	}
	l.wall += o.wall
	l.nextCalls += o.nextCalls
	l.computeCalls += o.computeCalls
	l.computeMoves += o.computeMoves
	l.look += o.look
	l.cv += o.cv
	l.rowsComputed += o.rowsComputed
	l.rowsReused += o.rowsReused
	l.cvChecks += o.cvChecks
	l.confirm += o.confirm
	l.confirmRuns += o.confirmRuns
	l.finishWithCV += o.finishWithCV
}

// tracer times one engine run from the outside: it decorates the
// algorithm and the scheduler and observes the run. It is single-use and
// not safe for concurrent runs — the engine calls it on one goroutine.
type tracer struct {
	start time.Time
	last  time.Time
	ph    phase
	times layerTimes

	// World-change tracking, to tell whether the engine's last CV check
	// can fall into the finish interval: the CV cache is keyed by the
	// event of the last position or light change.
	colors      []model.Color
	lastChange  int
	changeAtCV  int
	sawEpochEnd bool
}

func newTracer() *tracer { return &tracer{lastChange: -1, changeAtCV: -2} }

// mark books the interval since the previous boundary to s.
func (t *tracer) mark(s span) {
	now := time.Now()
	t.times.span[s] += now.Sub(t.last)
	t.last = now
}

// begin and end bracket the sim.Run call.
func (t *tracer) begin() {
	t.last = time.Now()
	t.start = t.last
}

func (t *tracer) end() {
	t.mark(spanOther)
	t.times.wall = t.last.Sub(t.start)
}

// selfSpan books the interval a callback ending at a non-terminal event
// interrupts, by what the engine was doing.
func (t *tracer) selfSpan() span {
	switch t.ph {
	case phasePicked:
		return spanStep
	case phaseAfterStep:
		return spanMoveEnd
	default:
		return spanLoop
	}
}

// RunStart implements sim.Observer.
func (t *tracer) RunStart(info sim.RunInfo) {
	t.mark(spanOther)
	t.colors = make([]model.Color, info.N)
	t.ph = phaseIdle
	t.mark(spanObs)
}

// Event implements sim.Observer.
func (t *tracer) Event(ev sim.TraceEvent) {
	switch {
	case ev.Kind == "look" && t.ph == phasePicked:
		t.mark(spanLook)
	case ev.Kind == "step" && t.ph == phasePicked:
		t.mark(spanStep)
	default:
		t.mark(spanOther)
	}
	switch ev.Kind {
	case "step":
		t.lastChange = ev.Event
		t.ph = phaseAfterStep
	case "compute":
		if ev.Color != t.colors[ev.Robot] {
			t.colors[ev.Robot] = ev.Color
			t.lastChange = ev.Event
		}
		t.ph = phaseIdle
	default:
		t.ph = phaseIdle
	}
	t.mark(spanObs)
}

// CycleEnd implements sim.Observer.
func (t *tracer) CycleEnd(sim.CycleInfo) {
	t.mark(spanOther)
	t.ph = phaseIdle
	t.mark(spanObs)
}

// MoveEnd implements sim.Observer.
func (t *tracer) MoveEnd(sim.MoveInfo) {
	t.mark(t.selfSpan())
	t.ph = phaseIdle
	t.mark(spanObs)
}

// EpochEnd implements sim.Observer. An attached observer makes the
// engine evaluate CV at every boundary, so the check there covers the
// world as of the last change.
func (t *tracer) EpochEnd(sim.EpochSample) {
	t.mark(spanLoop)
	t.changeAtCV = t.lastChange
	t.sawEpochEnd = true
	t.ph = phaseIdle
	t.mark(spanObs)
}

// ViolationFound implements sim.Observer.
func (t *tracer) ViolationFound(sim.Violation) {
	t.mark(t.selfSpan())
	t.mark(spanObs)
}

// RunEnd implements sim.Observer.
func (t *tracer) RunEnd(res *sim.Result, _ error) {
	t.mark(spanFinish)
	if !t.sawEpochEnd || t.changeAtCV != t.lastChange {
		// The world changed after the last boundary's CV check, so the
		// final quiescence test may have run a fresh CV check after the
		// last callback, inside the finish interval.
		t.times.finishWithCV++
	}
	k := res.Kernel
	t.times.look += time.Duration(k.LookNanos)
	t.times.cv += time.Duration(k.CVNanos)
	t.times.rowsComputed += k.RowsComputed
	t.times.rowsReused += k.RowsReused
	t.times.cvChecks += k.CVChecks
	t.mark(spanObs)
}

// algorithm wraps a to time Compute on the tracer's cursor.
func (t *tracer) algorithm(a model.Algorithm) model.Algorithm { return &timedAlgorithm{a, t} }

// scheduler wraps s to time Next on the tracer's cursor.
func (t *tracer) scheduler(s sched.Scheduler) sched.Scheduler { return &timedScheduler{s, t} }

type timedAlgorithm struct {
	model.Algorithm
	t *tracer
}

func (a *timedAlgorithm) Compute(s model.Snapshot) model.Action {
	t := a.t
	t.mark(spanOther)
	act := a.Algorithm.Compute(s)
	t.mark(spanCompute)
	t.times.computeCalls++
	if !act.IsStay(s.Self.Pos) {
		t.times.computeMoves++
	}
	return act
}

type timedScheduler struct {
	sched.Scheduler
	t *tracer
}

func (s *timedScheduler) Next(st []sched.Status, now int, rng *rand.Rand) int {
	t := s.t
	t.mark(spanLoop)
	r := s.Scheduler.Next(st, now, rng)
	t.mark(spanNext)
	t.times.nextCalls++
	t.ph = phasePicked
	return r
}
