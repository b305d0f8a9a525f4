// Package sched implements the activation schedulers of the three classic
// robot models — fully synchronous (FSYNC), semi-synchronous (SSYNC) and
// asynchronous (ASYNC) — over a single event-granular execution engine.
//
// The engine (internal/sim) advances one robot by one micro-event at a
// time: an Idle robot Looks, a Looked robot Computes, a Computed/Moving
// robot advances its move by one sub-step. A scheduler's only job is to
// pick which robot advances next and how many sub-steps a move takes.
// Every classical scheduler is a policy over this event stream:
//
//   - FSYNC keeps all robots in lockstep, so all Looks of a round happen
//     before any move of that round;
//   - SSYNC picks a random non-empty subset per round and runs it
//     atomically;
//   - ASYNC interleaves arbitrarily, which is where stale snapshots (a
//     robot moving on the basis of a world that has since changed) come
//     from. Two ASYNC policies are provided: a uniformly random one with
//     a fairness window, and an adversarial one that maximizes snapshot
//     staleness by batching all Looks before any motion and then moving
//     robots serially.
package sched

import (
	"fmt"
	"math/rand"
	"strings"
)

// Stage is a robot's position within its current Look-Compute-Move cycle.
type Stage uint8

const (
	// Idle: the robot has no pending cycle; its next event is a Look.
	Idle Stage = iota
	// Looked: a snapshot is held; the next event is a Compute.
	Looked
	// Computed: an action is held; the next event starts the move.
	Computed
	// Moving: the robot is partway along its motion segment.
	Moving
)

func (s Stage) String() string {
	switch s {
	case Idle:
		return "idle"
	case Looked:
		return "looked"
	case Computed:
		return "computed"
	case Moving:
		return "moving"
	default:
		return fmt.Sprintf("stage(%d)", uint8(s))
	}
}

// Status is the scheduler-visible state of one robot.
type Status struct {
	Stage Stage
	// Cycles is the number of complete LCM cycles finished since the
	// start of the run.
	Cycles int
	// StepsLeft is the number of move sub-steps remaining (Moving only).
	StepsLeft int
	// LastEvent is the index of the last event that advanced this robot,
	// or -1 if it has never been activated.
	LastEvent int
}

// Scheduler picks the next robot to advance. Implementations may be
// stateful; the engine calls Reset once per run before any Next call.
// Schedulers must be fair: every robot is advanced infinitely often.
type Scheduler interface {
	// Name identifies the scheduler in experiment tables.
	Name() string
	// Reset prepares the scheduler for a fresh run of n robots.
	Reset(n int)
	// Next returns the index of the robot to advance by one event.
	// now is the global event counter. The returned index must be in
	// [0, len(st)).
	Next(st []Status, now int, rng *rand.Rand) int
	// MoveSteps returns the number of sub-steps to split a newly
	// started move into (≥ 1). More sub-steps expose more intermediate
	// positions to other robots' Looks.
	MoveSteps(rng *rand.Rand) int
}

// FairnessWindow is the default bound on starvation used by the
// randomized schedulers: a robot not activated for this many events is
// advanced with priority. Without it, the ASYNC adversary would be
// allowed to freeze a robot forever and no algorithm could terminate.
const FairnessWindow = 4096

// mostStarved returns the index of the robot with the oldest LastEvent if
// it exceeds the window, else -1.
func mostStarved(st []Status, now, window int) int {
	idx, oldest := -1, now
	for i := range st {
		if st[i].LastEvent < oldest {
			oldest = st[i].LastEvent
			idx = i
		}
	}
	if idx >= 0 && now-oldest >= window {
		return idx
	}
	return -1
}

// ---------------------------------------------------------------------
// FSYNC

// FSync is the fully synchronous scheduler: all robots Look from the same
// world state, then all Compute, then all moves complete, and the next
// round begins. One round is exactly one epoch.
type FSync struct{}

// NewFSync returns the fully synchronous scheduler.
func NewFSync() *FSync { return &FSync{} }

// Name implements Scheduler.
func (*FSync) Name() string { return "fsync" }

// Reset implements Scheduler.
func (*FSync) Reset(int) {}

// Next keeps the swarm in lockstep: among the robots with the fewest
// completed cycles, advance the one at the earliest stage (lowest index
// breaking ties). This reproduces Look-all, Compute-all, Move-all rounds.
func (*FSync) Next(st []Status, _ int, _ *rand.Rand) int {
	minCycles := st[0].Cycles
	for _, s := range st[1:] {
		if s.Cycles < minCycles {
			minCycles = s.Cycles
		}
	}
	best := -1
	var bestStage Stage
	for i, s := range st {
		if s.Cycles != minCycles {
			continue
		}
		if best == -1 || s.Stage < bestStage {
			best, bestStage = i, s.Stage
		}
	}
	return best
}

// MoveSteps implements Scheduler: synchronous moves are atomic.
func (*FSync) MoveSteps(*rand.Rand) int { return 1 }

// ---------------------------------------------------------------------
// SSYNC

// SSync is the semi-synchronous scheduler: each round a random non-empty
// subset of robots executes a full atomic LCM cycle; the rest sleep. The
// probability of selection is p per robot (default 0.5), with at least
// one robot forced in.
type SSync struct {
	// P is the per-robot selection probability per round.
	P float64

	selected []bool
	base     []int // cycle count of each robot at round start
	rounds   int
	started  bool
}

// NewSSync returns a semi-synchronous scheduler with selection
// probability p per robot per round (p ≤ 0 or > 1 defaults to 0.5).
func NewSSync(p float64) *SSync {
	if p <= 0 || p > 1 {
		p = 0.5
	}
	return &SSync{P: p}
}

// Name implements Scheduler.
func (s *SSync) Name() string { return "ssync" }

// Reset implements Scheduler.
func (s *SSync) Reset(n int) {
	s.selected = make([]bool, n)
	s.base = make([]int, n)
	s.rounds = 0
	s.started = false
}

// Rounds returns the number of completed SSYNC rounds so far.
func (s *SSync) Rounds() int { return s.rounds }

// Next runs the current round's subset in lockstep; when every selected
// robot has completed one cycle, a fresh non-empty subset is drawn.
func (s *SSync) Next(st []Status, _ int, rng *rand.Rand) int {
	if !s.started || s.roundDone(st) {
		if s.started {
			s.rounds++
		}
		s.draw(st, rng)
		s.started = true
	}
	// Advance the selected, not-yet-done robot at the earliest stage so
	// the subset acts atomically (all Looks before any move).
	best := -1
	var bestStage Stage
	for i, t := range st {
		if !s.selected[i] || t.Cycles > s.base[i] {
			continue
		}
		if best == -1 || t.Stage < bestStage {
			best, bestStage = i, t.Stage
		}
	}
	if best < 0 {
		// Unreachable by construction (roundDone would have drawn a new
		// subset); return a valid index to satisfy the contract.
		return 0
	}
	return best
}

// roundDone reports whether every selected robot completed a cycle since
// the round began.
func (s *SSync) roundDone(st []Status) bool {
	for i := range st {
		if s.selected[i] && st[i].Cycles == s.base[i] {
			return false
		}
	}
	return true
}

// draw selects the next round's non-empty subset and records the cycle
// baseline.
func (s *SSync) draw(st []Status, rng *rand.Rand) {
	any := false
	for i := range s.selected {
		s.selected[i] = rng.Float64() < s.P
		any = any || s.selected[i]
	}
	if !any {
		s.selected[rng.Intn(len(s.selected))] = true
	}
	for i := range st {
		s.base[i] = st[i].Cycles
	}
}

// MoveSteps implements Scheduler: semi-synchronous moves are atomic.
func (*SSync) MoveSteps(*rand.Rand) int { return 1 }

// ---------------------------------------------------------------------
// ASYNC (randomized)

// AsyncRandom advances a uniformly random robot each event and splits
// moves into a random number of sub-steps, so Looks routinely observe
// robots mid-move and snapshots go stale — the standard randomized ASYNC
// adversary.
type AsyncRandom struct {
	// MaxSubSteps bounds how finely a move is split (≥ 1).
	MaxSubSteps int
	// Window is the fairness window in events (0 = FairnessWindow).
	Window int
}

// NewAsyncRandom returns the randomized asynchronous scheduler.
func NewAsyncRandom() *AsyncRandom { return &AsyncRandom{MaxSubSteps: 4} }

// Name implements Scheduler.
func (*AsyncRandom) Name() string { return "async-random" }

// Reset implements Scheduler.
func (*AsyncRandom) Reset(int) {}

// Next implements Scheduler.
func (a *AsyncRandom) Next(st []Status, now int, rng *rand.Rand) int {
	w := a.Window
	if w <= 0 {
		w = FairnessWindow
	}
	if i := mostStarved(st, now, w); i >= 0 {
		return i
	}
	return rng.Intn(len(st))
}

// MoveSteps implements Scheduler.
func (a *AsyncRandom) MoveSteps(rng *rand.Rand) int {
	m := a.MaxSubSteps
	if m < 1 {
		m = 1
	}
	return 1 + rng.Intn(m)
}

// ---------------------------------------------------------------------
// ASYNC (adversarial staleness)

// AsyncStale is the staleness-maximizing asynchronous adversary: in each
// wave it first lets every robot Look and Compute (freezing all decisions
// against the same old world), then executes the moves one robot at a
// time. Robots late in the serial order therefore move on snapshots that
// are stale by up to n-1 completed relocations — the worst interleaving a
// correct ASYNC algorithm must survive. It also maximizes sub-steps so
// intermediate positions are exposed.
type AsyncStale struct {
	// SubSteps is the number of sub-steps per move (≥ 1, default 4).
	SubSteps int

	order []int
	n     int
}

// NewAsyncStale returns the adversarial asynchronous scheduler.
func NewAsyncStale() *AsyncStale { return &AsyncStale{SubSteps: 4} }

// Name implements Scheduler.
func (*AsyncStale) Name() string { return "async-stale" }

// Reset implements Scheduler.
func (a *AsyncStale) Reset(n int) {
	a.n = n
	a.order = nil
}

// Next implements Scheduler.
func (a *AsyncStale) Next(st []Status, _ int, rng *rand.Rand) int {
	// A wave boundary is the only moment every robot is Idle; draw the
	// serial execution order for the new wave there.
	allIdle := true
	for _, t := range st {
		if t.Stage != Idle {
			allIdle = false
			break
		}
	}
	if allIdle || a.order == nil || len(a.order) != len(st) {
		a.order = rng.Perm(len(st))
	}
	// Phase 1 of a wave: everyone Looks, then everyone Computes, so all
	// decisions are frozen against the same pre-wave world. An Idle robot
	// that has completed more cycles than the slowest one must wait for
	// the wave to finish.
	minCycles := st[0].Cycles
	for _, t := range st[1:] {
		if t.Cycles < minCycles {
			minCycles = t.Cycles
		}
	}
	for i, t := range st {
		if t.Stage == Idle && t.Cycles <= minCycles {
			return i
		}
	}
	for i, t := range st {
		if t.Stage == Looked {
			return i
		}
	}
	// Phase 2: execute the pending moves serially in the wave order,
	// completing one robot's move before starting the next, so late
	// movers act on snapshots stale by up to n-1 relocations.
	for _, i := range a.order {
		if st[i].Stage == Moving {
			return i
		}
	}
	for _, i := range a.order {
		if st[i].Stage == Computed {
			return i
		}
	}
	return 0 // unreachable: some robot always has an available event
}

// MoveSteps implements Scheduler.
func (a *AsyncStale) MoveSteps(*rand.Rand) int {
	if a.SubSteps < 1 {
		return 1
	}
	return a.SubSteps
}

// ---------------------------------------------------------------------
// ASYNC (deterministic round-robin)

// AsyncRoundRobin advances robots cyclically, one micro-event each, with
// a fixed number of move sub-steps. It is a fully deterministic member
// of the ASYNC class (every interleaving it produces is a legal ASYNC
// schedule) — useful for bisecting bugs, because runs are reproducible
// without a seed. Note that round-robin is *kind* to algorithms (stale
// windows are short and regular); it complements, not replaces, the
// randomized and adversarial schedulers.
type AsyncRoundRobin struct {
	// SubSteps is the number of sub-steps per move (≥ 1, default 2).
	SubSteps int
	next     int
}

// NewAsyncRoundRobin returns the deterministic asynchronous scheduler.
func NewAsyncRoundRobin() *AsyncRoundRobin { return &AsyncRoundRobin{SubSteps: 2} }

// Name implements Scheduler.
func (*AsyncRoundRobin) Name() string { return "async-rr" }

// Reset implements Scheduler.
func (a *AsyncRoundRobin) Reset(int) { a.next = 0 }

// Next implements Scheduler.
func (a *AsyncRoundRobin) Next(st []Status, _ int, _ *rand.Rand) int {
	r := a.next % len(st)
	a.next++
	return r
}

// MoveSteps implements Scheduler.
func (a *AsyncRoundRobin) MoveSteps(*rand.Rand) int {
	if a.SubSteps < 1 {
		return 1
	}
	return a.SubSteps
}

// ---------------------------------------------------------------------

// ByNameErr returns a fresh scheduler by its table name, or an error
// naming every known scheduler for an unknown name. User-facing callers
// (command-line flags, the HTTP service) should use this form so typos
// surface as a clear message instead of a crash.
func ByNameErr(name string) (Scheduler, error) {
	switch name {
	case "fsync":
		return NewFSync(), nil
	case "ssync":
		return NewSSync(0.5), nil
	case "async-random", "async":
		return NewAsyncRandom(), nil
	case "async-stale", "adversary":
		return NewAsyncStale(), nil
	case "async-rr", "round-robin":
		return NewAsyncRoundRobin(), nil
	default:
		return nil, fmt.Errorf("sched: unknown scheduler %q (known: %s)",
			name, strings.Join(Names(), ", "))
	}
}

// ByName returns a fresh scheduler by its table name. It panics on an
// unknown name (with the known names in the message): experiment tables
// are compiled in, so an unknown name there is a programming error.
// Callers resolving user input should prefer ByNameErr.
func ByName(name string) Scheduler {
	s, err := ByNameErr(name)
	if err != nil {
		panic(err.Error())
	}
	return s
}

// Names lists the scheduler table names in canonical order.
func Names() []string {
	return []string{"fsync", "ssync", "async-random", "async-stale", "async-rr"}
}
