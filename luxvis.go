// Package luxvis is a simulator and algorithm library for the "robots
// with lights" model of distributed computing, built as a reproduction of
//
//	Sharma, Vaidyanathan, Trahan, Busch, Rai:
//	"O(log N)-Time Complete Visibility for Asynchronous Robots with
//	Lights", IPDPS 2017.
//
// It provides:
//
//   - the Look-Compute-Move robot model with obstructed visibility and
//     colored lights (N robots see each other unless a third robot sits
//     on the segment between them);
//   - FSYNC, SSYNC and ASYNC schedulers, including an adversarial
//     staleness-maximizing ASYNC scheduler, over a discrete-event engine
//     that verifies collision-freedom and path-disjointness with exact
//     rational arithmetic;
//   - LogVis, the paper's O(log N)-time O(1)-color asynchronous Complete
//     Visibility algorithm (reconstruction — see DESIGN.md), and SeqVis,
//     the Θ(N)-epoch asynchronous translation of the semi-synchronous
//     algorithm that the paper compares against;
//   - a true-concurrency runtime (one goroutine per robot) running the
//     same algorithms unmodified;
//   - workload generators, metrics, growth-law fitting, SVG rendering
//     and the experiment harness behind EXPERIMENTS.md.
//
// The quickest way in:
//
//	pts := luxvis.Generate(luxvis.Uniform, 64, 1)
//	res, err := luxvis.Run(luxvis.NewLogVis(), pts,
//	    luxvis.DefaultOptions(luxvis.NewAsyncRandom(), 1))
//	// res.Reached, res.Epochs, res.Collisions, ...
//
// This package is a thin façade: the implementation lives in internal/
// packages, re-exported here as type aliases so downstream code needs
// only this import.
package luxvis

import (
	"context"
	"io"

	"luxvis/internal/baseline"
	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/obs"
	"luxvis/internal/rt"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// ---------------------------------------------------------------------
// Geometry

// Point is a point in the plane.
type Point = geom.Point

// Pt constructs a Point.
func Pt(x, y float64) Point { return geom.Pt(x, y) }

// CompleteVisibility reports whether every pair of robots at pts is
// mutually visible, decided with exact rational arithmetic.
func CompleteVisibility(pts []Point) bool { return exact.CompleteVisibilityHybrid(pts) }

// StrictlyConvexPosition reports whether all points are distinct strict
// corners of their convex hull — the terminal configuration shape of the
// Complete Visibility algorithms.
func StrictlyConvexPosition(pts []Point) bool { return geom.StrictlyConvexPosition(pts) }

// VisibleSet returns the indices of the robots visible from pts[i]
// under obstructed visibility, in O(n log n), computing the row from
// scratch. For an evolving configuration prefer a VisibilitySnapshot,
// which computes identical rows without allocating and reuses the rows a
// move cannot affect.
func VisibleSet(pts []Point, i int) []int { return geom.VisibleSetFast(pts, i) }

// ---------------------------------------------------------------------
// Visibility kernel

// VisibilityKernel batches visibility computation: it owns per-worker
// arenas and fans full-snapshot passes out across cores. Close it when
// done. The engine creates one per run internally; construct one
// directly to drive VisibilitySnapshot or the batched Complete
// Visibility check yourself.
type VisibilityKernel = geom.Kernel

// NewVisibilityKernel returns a kernel with the given worker count
// (≤ 0 selects the host's core count).
func NewVisibilityKernel(workers int) *VisibilityKernel { return geom.NewKernel(workers) }

// VisibilitySnapshot is a kernel-backed view of all N visible sets of
// one evolving configuration: rows are computed on demand, reused
// arenas make the steady state allocation-free, and after a single-
// robot Update only the rows the move can affect are recomputed.
type VisibilitySnapshot = geom.Snapshot

// VisibilitySnapshotStats reports a snapshot's computed-versus-reused
// row counters.
type VisibilitySnapshotStats = geom.SnapshotStats

// KernelStats summarizes the visibility kernel's work during an engine
// run (see Result.Kernel).
type KernelStats = sim.KernelStats

// ---------------------------------------------------------------------
// Model

// Color is a robot light color.
type Color = model.Color

// The shared light palette (algorithms use subsets).
const (
	Off      = model.Off
	Line     = model.Line
	Corner   = model.Corner
	Side     = model.Side
	Interior = model.Interior
	Transit  = model.Transit
	Beacon   = model.Beacon
	Done     = model.Done
)

// Snapshot is what a robot sees during Look.
type Snapshot = model.Snapshot

// RobotView is one visible robot in a Snapshot.
type RobotView = model.RobotView

// Action is a robot's Compute result.
type Action = model.Action

// Algorithm is a distributed robot algorithm: a pure function from
// snapshots to actions.
type Algorithm = model.Algorithm

// ---------------------------------------------------------------------
// Algorithms

// LogVis is the paper's O(log N)-time, O(1)-color asynchronous Complete
// Visibility algorithm.
type LogVis = core.LogVis

// NewLogVis returns the paper's algorithm with default tunables.
func NewLogVis() *LogVis { return core.NewLogVis() }

// SeqVis is the Θ(N)-epoch asynchronous translation of the
// semi-synchronous algorithm — the paper's comparison baseline.
type SeqVis = baseline.SeqVis

// NewSeqVis returns the baseline algorithm.
func NewSeqVis() *SeqVis { return baseline.NewSeqVis() }

// CircleVis is a reference strategy that converges robots onto the
// smallest enclosing circle of their view (move-onto-a-common-circle
// family); included as a structurally different comparison point.
type CircleVis = circlevis.CircleVis

// NewCircleVis returns the CircleVis reference algorithm.
func NewCircleVis() *CircleVis { return circlevis.NewCircleVis() }

// ---------------------------------------------------------------------
// Schedulers

// Scheduler decides robot activation order.
type Scheduler = sched.Scheduler

// NewFSync returns the fully synchronous scheduler.
func NewFSync() Scheduler { return sched.NewFSync() }

// NewSSync returns the semi-synchronous scheduler with per-robot
// selection probability p (p ≤ 0 or > 1 defaults to 0.5).
func NewSSync(p float64) Scheduler { return sched.NewSSync(p) }

// NewAsyncRandom returns the randomized asynchronous scheduler.
func NewAsyncRandom() Scheduler { return sched.NewAsyncRandom() }

// NewAsyncStale returns the staleness-maximizing asynchronous adversary.
func NewAsyncStale() Scheduler { return sched.NewAsyncStale() }

// NewAsyncRoundRobin returns the deterministic round-robin asynchronous
// scheduler (reproducible without a seed; kind to algorithms).
func NewAsyncRoundRobin() Scheduler { return sched.NewAsyncRoundRobin() }

// SchedulerByName resolves a scheduler by its table name ("fsync",
// "ssync", "async-random", "async-stale", "async-rr"). It panics on
// unknown names; prefer SchedulerByNameErr for user-supplied input.
func SchedulerByName(name string) Scheduler { return sched.ByName(name) }

// SchedulerByNameErr resolves a scheduler by its table name, returning
// an error that lists the known names on a miss.
func SchedulerByNameErr(name string) (Scheduler, error) { return sched.ByNameErr(name) }

// SchedulerNames lists the scheduler names in canonical order.
func SchedulerNames() []string { return sched.Names() }

// ---------------------------------------------------------------------
// Simulation

// Options configures a simulation run.
type Options = sim.Options

// Result reports a simulation run.
type Result = sim.Result

// DefaultOptions returns runnable Options for the given scheduler and
// seed.
func DefaultOptions(s Scheduler, seed int64) Options { return sim.DefaultOptions(s, seed) }

// Run executes an algorithm from a start configuration under the
// discrete-event engine, with exact safety verification.
func Run(algo Algorithm, start []Point, opt Options) (Result, error) {
	return sim.Run(algo, start, opt)
}

// RunCtx is Run with caller cancellation: once ctx is done the engine
// aborts at the next epoch boundary, returning the deterministic
// prefix computed so far alongside ctx's error.
func RunCtx(ctx context.Context, algo Algorithm, start []Point, opt Options) (Result, error) {
	return sim.RunCtx(ctx, algo, start, opt)
}

// ConcurrentOptions configures a true-concurrency run.
type ConcurrentOptions = rt.Options

// ConcurrentResult reports a true-concurrency run.
type ConcurrentResult = rt.Result

// RunConcurrent executes an algorithm with one goroutine per robot —
// genuine asynchrony from scheduler jitter instead of simulated events.
func RunConcurrent(algo Algorithm, start []Point, opt ConcurrentOptions) (ConcurrentResult, error) {
	return rt.Run(algo, start, opt)
}

// RunConcurrentCtx is RunConcurrent with caller cancellation layered
// under the MaxWall clock: whichever expires first stops the run.
func RunConcurrentCtx(ctx context.Context, algo Algorithm, start []Point, opt ConcurrentOptions) (ConcurrentResult, error) {
	return rt.RunCtx(ctx, algo, start, opt)
}

// ---------------------------------------------------------------------
// Observability

// Observer receives engine callbacks during a run; set Options.Observer.
// A nil observer costs nothing on the simulation hot path.
type Observer = sim.Observer

// RunInfo identifies a run at Observer.RunStart.
type RunInfo = sim.RunInfo

// CycleInfo describes one completed LCM cycle.
type CycleInfo = sim.CycleInfo

// MoveInfo describes one completed relocation.
type MoveInfo = sim.MoveInfo

// EpochSample is one epoch-boundary progress sample.
type EpochSample = sim.EpochSample

// Phase is an algorithm-phase attribution bucket.
type Phase = sim.Phase

// The phase attribution buckets.
const (
	PhaseOther    = sim.PhaseOther
	PhaseInterior = sim.PhaseInterior
	PhaseEdge     = sim.PhaseEdge
	PhaseCorner   = sim.PhaseCorner
)

// PhaseOf maps a robot light color to its phase attribution.
func PhaseOf(c Color) Phase { return sim.PhaseOf(c) }

// ObserverFuncs adapts a sparse set of callback functions to Observer;
// nil fields are no-ops.
type ObserverFuncs = obs.Funcs

// MultiObserver combines observers into one; nil members are dropped and
// zero remaining observers yield nil (preserving the engine fast path).
func MultiObserver(observers ...Observer) Observer { return obs.Multi(observers...) }

// FlightRecorder keeps the last K engine events and dumps a JSONL
// snapshot on the first violation or an aborted run.
type FlightRecorder = obs.FlightRecorder

// NewFlightRecorder returns a FlightRecorder retaining k events (k <= 0
// selects the default) that dumps to sink.
func NewFlightRecorder(k int, sink io.Writer) *FlightRecorder { return obs.NewFlightRecorder(k, sink) }

// EngineTotals accumulates lifetime engine counters across runs with
// lock-free atomics; attach it to many runs' Options.Observer.
type EngineTotals = obs.EngineTotals

// NewEngineTotals returns a zeroed accumulator.
func NewEngineTotals() *EngineTotals { return obs.NewEngineTotals() }

// TelemetryWriter streams epoch-granular run telemetry as JSONL.
type TelemetryWriter = obs.TelemetryWriter

// NewTelemetryWriter returns a TelemetryWriter emitting to w.
func NewTelemetryWriter(w io.Writer) *TelemetryWriter { return obs.NewTelemetryWriter(w) }

// ---------------------------------------------------------------------
// Workloads

// Family names an initial-configuration generator.
type Family = config.Family

// The workload families.
const (
	Uniform     = config.Uniform
	Clustered   = config.Clustered
	LineConfig  = config.Line
	LineEven    = config.LineEven
	CircleStart = config.Circle
	Onion       = config.Onion
	Grid        = config.Grid
	TwoClusters = config.TwoClusters
	Wedge       = config.Wedge
	Spokes      = config.Spokes
)

// Families lists all workload families.
func Families() []Family { return config.Families() }

// Generate returns n distinct robot positions of the given family,
// deterministic per (family, n, seed).
func Generate(f Family, n int, seed int64) []Point { return config.Generate(f, n, seed) }
