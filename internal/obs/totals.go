package obs

import (
	"sync/atomic"

	"luxvis/internal/sim"
)

// violationKinds is the fixed set of engine violation kinds, in
// declaration order, plus a catch-all tail slot for kinds this package
// does not know (forward compatibility with new engine checks).
var violationKinds = [...]sim.ViolationKind{
	sim.VColocation, sim.VPassThrough, sim.VPathCross, sim.VPalette, sim.VBadTarget,
}

const otherViolationSlot = len(violationKinds) // index of the catch-all counter

func violationSlot(k sim.ViolationKind) int {
	for i, known := range violationKinds {
		if k == known {
			return i
		}
	}
	return otherViolationSlot
}

// EngineTotals accumulates lifetime engine counters across any number of
// runs, with lock-free atomic increments, and implements sim.Observer so
// it can be attached to every run a service executes (shared by all
// worker goroutines). It is the `luxvis_engine_*` section of visserve's
// Prometheus exposition. Every field is accessed through sync/atomic
// only — the `atomicmix` analyzer (cmd/vislint) rejects any plain
// load or store of these counters, so a snapshot can never tear.
type EngineTotals struct {
	runsStarted  atomic.Int64
	runsFinished atomic.Int64
	runsAborted  atomic.Int64
	cvReached    atomic.Int64
	epochs       atomic.Int64
	cycles       atomic.Int64
	moves        atomic.Int64
	events       atomic.Int64
	violations   [len(violationKinds) + 1]atomic.Int64
	phaseCycles  [sim.NumPhases]atomic.Int64
	phaseMoves   [sim.NumPhases]atomic.Int64

	// Visibility-kernel counters, accumulated from Result.Kernel at
	// RunEnd (see sim.KernelStats).
	visRowsComputed atomic.Int64
	visRowsReused   atomic.Int64
	visCVChecks     atomic.Int64
	visLookNanos    atomic.Int64
	visCVNanos      atomic.Int64
}

// NewEngineTotals returns a zeroed accumulator.
func NewEngineTotals() *EngineTotals { return &EngineTotals{} }

// RunStart implements sim.Observer.
func (t *EngineTotals) RunStart(sim.RunInfo) { t.runsStarted.Add(1) }

// Event implements sim.Observer.
func (t *EngineTotals) Event(sim.TraceEvent) { t.events.Add(1) }

// CycleEnd implements sim.Observer.
func (t *EngineTotals) CycleEnd(c sim.CycleInfo) {
	t.cycles.Add(1)
	t.phaseCycles[c.Phase].Add(1)
	if c.Moved {
		t.phaseMoves[c.Phase].Add(1)
	}
}

// MoveEnd implements sim.Observer.
func (t *EngineTotals) MoveEnd(sim.MoveInfo) { t.moves.Add(1) }

// EpochEnd implements sim.Observer.
func (t *EngineTotals) EpochEnd(sim.EpochSample) { t.epochs.Add(1) }

// ViolationFound implements sim.Observer.
func (t *EngineTotals) ViolationFound(v sim.Violation) {
	t.violations[violationSlot(v.Kind)].Add(1)
}

// RunEnd implements sim.Observer.
func (t *EngineTotals) RunEnd(res *sim.Result, aborted error) {
	t.runsFinished.Add(1)
	if aborted != nil {
		t.runsAborted.Add(1)
	}
	if res.Reached {
		t.cvReached.Add(1)
	}
	t.visRowsComputed.Add(res.Kernel.RowsComputed)
	t.visRowsReused.Add(res.Kernel.RowsReused)
	t.visCVChecks.Add(res.Kernel.CVChecks)
	t.visLookNanos.Add(res.Kernel.LookNanos)
	t.visCVNanos.Add(res.Kernel.CVNanos)
}

// EngineTotalsSnapshot is a point-in-time copy of EngineTotals.
type EngineTotalsSnapshot struct {
	RunsStarted  int64
	RunsFinished int64
	RunsAborted  int64
	CVReached    int64
	Epochs       int64
	Cycles       int64
	Moves        int64
	Events       int64
	// Violations maps every known violation kind (plus "other") to its
	// lifetime count; all keys are always present.
	Violations map[string]int64
	// PhaseCycles and PhaseMoves map phase names to lifetime counts.
	PhaseCycles map[string]int64
	PhaseMoves  map[string]int64
	// Visibility-kernel totals (see sim.KernelStats): rows built
	// versus served again with no move since they were built, CV
	// evaluations, and the time both spent (nanoseconds are zero for
	// runs without timing, i.e. when only row counters were collected).
	VisRowsComputed int64
	VisRowsReused   int64
	VisCVChecks     int64
	VisLookNanos    int64
	VisCVNanos      int64
}

// Snapshot copies the counters.
func (t *EngineTotals) Snapshot() EngineTotalsSnapshot {
	s := EngineTotalsSnapshot{
		RunsStarted:  t.runsStarted.Load(),
		RunsFinished: t.runsFinished.Load(),
		RunsAborted:  t.runsAborted.Load(),
		CVReached:    t.cvReached.Load(),
		Epochs:       t.epochs.Load(),
		Cycles:       t.cycles.Load(),
		Moves:        t.moves.Load(),
		Events:       t.events.Load(),
		Violations:   make(map[string]int64, len(violationKinds)+1),
		PhaseCycles:  make(map[string]int64, sim.NumPhases),
		PhaseMoves:   make(map[string]int64, sim.NumPhases),

		VisRowsComputed: t.visRowsComputed.Load(),
		VisRowsReused:   t.visRowsReused.Load(),
		VisCVChecks:     t.visCVChecks.Load(),
		VisLookNanos:    t.visLookNanos.Load(),
		VisCVNanos:      t.visCVNanos.Load(),
	}
	for i, k := range violationKinds {
		s.Violations[string(k)] = t.violations[i].Load()
	}
	s.Violations["other"] = t.violations[otherViolationSlot].Load()
	for _, p := range sim.AllPhases() {
		s.PhaseCycles[p.String()] = t.phaseCycles[p].Load()
		s.PhaseMoves[p.String()] = t.phaseMoves[p].Load()
	}
	return s
}

// WritePrometheus emits the totals as `<prefix>_*` counter families in a
// deterministic order (violation kinds and phases in declaration order).
func (t *EngineTotals) WritePrometheus(w *TextWriter, prefix string) {
	w.Counter(prefix+"_runs_started_total", "Engine runs started.", float64(t.runsStarted.Load()))
	w.Counter(prefix+"_runs_finished_total", "Engine runs finished (including aborted ones).", float64(t.runsFinished.Load()))
	w.Counter(prefix+"_runs_aborted_total", "Engine runs aborted by cancellation or deadline.", float64(t.runsAborted.Load()))
	w.Counter(prefix+"_cv_reached_total", "Runs that terminated in verified Complete Visibility.", float64(t.cvReached.Load()))
	w.Counter(prefix+"_epochs_total", "Completed engine epochs across all runs.", float64(t.epochs.Load()))
	w.Counter(prefix+"_cycles_total", "Completed LCM cycles across all runs.", float64(t.cycles.Load()))
	w.Counter(prefix+"_moves_total", "Completed relocations across all runs.", float64(t.moves.Load()))
	w.Counter(prefix+"_events_total", "Engine micro-events (look/compute/step) across all runs.", float64(t.events.Load()))
	for i, k := range violationKinds {
		w.Counter(prefix+"_violations_total", "Safety violations by kind.",
			float64(t.violations[i].Load()), Label{Name: "kind", Value: string(k)})
	}
	w.Counter(prefix+"_violations_total", "Safety violations by kind.",
		float64(t.violations[otherViolationSlot].Load()), Label{Name: "kind", Value: "other"})
	for _, p := range sim.AllPhases() {
		w.Counter(prefix+"_phase_cycles_total", "Completed LCM cycles by phase attribution.",
			float64(t.phaseCycles[p].Load()), Label{Name: "phase", Value: p.String()})
	}
	for _, p := range sim.AllPhases() {
		w.Counter(prefix+"_phase_moves_total", "Completed relocations by phase attribution.",
			float64(t.phaseMoves[p].Load()), Label{Name: "phase", Value: p.String()})
	}
	w.Counter(prefix+"_vis_rows_total", "Visibility rows the engine served, by path (computed: built for the Look; reused: served again with no move since it was built).",
		float64(t.visRowsComputed.Load()), Label{Name: "path", Value: "computed"})
	w.Counter(prefix+"_vis_rows_total", "Visibility rows the engine served, by path (computed: built for the Look; reused: served again with no move since it was built).",
		float64(t.visRowsReused.Load()), Label{Name: "path", Value: "reused"})
	w.Counter(prefix+"_vis_cv_checks_total", "Complete Visibility evaluations (CV-cache misses).",
		float64(t.visCVChecks.Load()))
	w.Counter(prefix+"_vis_look_seconds_total", "Wall time spent on Look visibility rows.",
		float64(t.visLookNanos.Load())/1e9)
	w.Counter(prefix+"_vis_cv_seconds_total", "Wall time spent in Complete Visibility checks.",
		float64(t.visCVNanos.Load())/1e9)
}
