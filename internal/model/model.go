// Package model defines the robots-with-lights computation model: colors,
// snapshots, actions and the Algorithm interface. An Algorithm is a pure
// function from a snapshot to an action — robots are anonymous, oblivious
// (no memory besides the light), and silent, exactly as in the paper. The
// simulation engine (internal/sim) is responsible for when snapshots are
// taken and when actions execute; the model layer is timing-free.
package model

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"luxvis/internal/geom"
)

// Color is the value a robot's light can show. The model requires O(1)
// colors; each Algorithm declares its palette and the engine verifies no
// undeclared color is ever lit.
type Color uint8

// The shared palette. Algorithms use a subset; the names follow the
// phase roles in the Complete Visibility literature.
const (
	// Off is the initial color of every robot.
	Off Color = iota
	// Line marks an endpoint of a fully collinear configuration.
	Line
	// Corner marks a robot that has established itself as a strict
	// corner of the convex hull. Corner robots never move again until
	// the final Done transition.
	Corner
	// Side marks a robot positioned on a hull edge (between corners).
	Side
	// Interior marks a robot strictly inside the hull.
	Interior
	// Transit marks a robot that has committed to a relocation and may
	// currently be between its origin and its target.
	Transit
	// Beacon marks a robot serving as a placed reference point on a
	// curve during Beacon-Directed Curve Positioning.
	Beacon
	// Done marks a robot that has verified local completion.
	Done

	// NumColors is the size of the shared palette.
	NumColors = 8
)

var colorNames = [NumColors]string{
	"off", "line", "corner", "side", "interior", "transit", "beacon", "done",
}

// AllColors returns the full shared palette in declaration order. It is
// the sanctioned way to enumerate colors outside this package: vislint's
// palette analyzer forbids minting Color values from integers anywhere
// else, so palette-wide loops (legends, masks, trace decoding) go
// through this helper instead.
func AllColors() []Color {
	return []Color{Off, Line, Corner, Side, Interior, Transit, Beacon, Done}
}

func (c Color) String() string {
	if int(c) < len(colorNames) {
		return colorNames[c]
	}
	return fmt.Sprintf("color(%d)", uint8(c))
}

// RobotView is one robot as it appears in a snapshot: a position and a
// light color. There is no identity — robots are anonymous.
type RobotView struct {
	Pos   geom.Point
	Color Color
}

// Snapshot is the result of a Look: the observing robot's own position
// and light, and every robot currently visible from it (obstructed robots
// are absent). Positions are world coordinates as a simulation
// convenience; conforming algorithms use only frame-invariant constructs
// (see DESIGN.md, substitution log).
type Snapshot struct {
	Self   RobotView
	Others []RobotView
	// World, when non-nil, memoizes geometry that depends only on the
	// snapshot's point multiset, Self plus Others, and is shared with
	// every other snapshot of the same multiset. It is an optimisation,
	// not information: an algorithm reads it only through methods that
	// answer exactly what they would answer for a nil World. It is nil
	// for hand-built snapshots and for every Look that is not a full
	// view (see World).
	World *World
}

// World is a memo shared by the snapshots of one world position state.
// The engine (internal/sim) attaches one to a Look that is a full view:
// its row holds every other robot, so its points are exactly the
// robots' positions, and sensor jitter is off, so none is perturbed.
// Every full view taken between the same two moves therefore has the
// same point multiset and shares one World. A move ends it; a light
// change does not, because nothing a World memoizes depends on a color.
// Partial views, jittered Looks and the goroutine runtime
// (internal/rt) get a nil World, which computes from scratch.
//
// The zero value is ready to use. A World is immutable once built and
// safe for concurrent use. It stays valid for as long as any snapshot
// that holds it, also after the engine has moved on to a newer World.
type World struct {
	hullOnce sync.Once
	// collinear is the AllCollinear answer: 0 until decided, then
	// collinearNo or collinearYes. Racing first callers compute the same
	// answer and store the same value, so it needs no Once (and fits
	// the padding after hullOnce, keeping a World in its size class).
	collinear atomic.Int32
	hull      geom.Hull
	// bounds is the Bounds answer, {min, max}: nil until decided.
	// Racing first callers store equal boxes, as for collinear; a
	// pointer rather than a second Once keeps a World at 48 bytes.
	bounds atomic.Pointer[[2]geom.Point]
}

const (
	collinearNo int32 = 1 + iota
	collinearYes
)

// Hull returns the convex hull of pts, the points of a snapshot that
// holds w. A nil World returns geom.ConvexHull(pts). A non-nil World
// builds the hull once, from the first caller's pts, and returns that
// same hull to every caller: ConvexHull depends only on the point
// multiset (up to the sign of a zero coordinate; see there), so every
// sharer reads the corners it would have built. The returned corners
// are shared and must not be modified.
func (w *World) Hull(pts []geom.Point) geom.Hull {
	if w == nil {
		return geom.ConvexHull(pts)
	}
	w.hullOnce.Do(func() { w.hull = geom.ConvexHull(pts) })
	return w.hull
}

// AllCollinear reports whether pts, the points of a snapshot that holds
// w, lie on one line. A nil World returns geom.AllCollinear(pts). A
// non-nil World decides from its first callers' pts and returns that
// answer to every later caller: AllCollinear depends only on the point
// multiset (see there), so every sharer reads the answer it would have
// computed.
func (w *World) AllCollinear(pts []geom.Point) bool {
	if w == nil {
		return geom.AllCollinear(pts)
	}
	if v := w.collinear.Load(); v != 0 {
		return v == collinearYes
	}
	c, v := geom.AllCollinear(pts), collinearNo
	if c {
		v = collinearYes
	}
	w.collinear.Store(v)
	return c
}

// Bounds returns the bounding box of pts, the points of a snapshot that
// holds w. A nil World returns geom.BoundingBox(pts). A non-nil World
// computes the box from its first callers' pts and returns it to every
// later caller: BoundingBox folds with math.Min and math.Max, whose
// results do not depend on the order of their operands (signed zeros
// and NaN included), so the box depends only on the point multiset and
// every sharer reads the box it would have computed.
func (w *World) Bounds(pts []geom.Point) (min, max geom.Point) {
	if w == nil {
		return geom.BoundingBox(pts)
	}
	if b := w.bounds.Load(); b != nil {
		return b[0], b[1]
	}
	min, max = geom.BoundingBox(pts)
	w.bounds.Store(&[2]geom.Point{min, max})
	return min, max
}

// Points returns the positions of all robots in the snapshot, self first.
// The returned slice is fresh; callers may mutate it.
func (s Snapshot) Points() []geom.Point {
	pts := make([]geom.Point, 0, len(s.Others)+1)
	pts = append(pts, s.Self.Pos)
	for _, o := range s.Others {
		pts = append(pts, o.Pos)
	}
	return pts
}

// CountColor returns how many visible robots (excluding self) show c.
func (s Snapshot) CountColor(c Color) int {
	n := 0
	for _, o := range s.Others {
		if o.Color == c {
			n++
		}
	}
	return n
}

// AllOthersColored reports whether every visible robot's light is one of
// the given colors. Vacuously true when nothing is visible.
func (s Snapshot) AllOthersColored(cs ...Color) bool {
	for _, o := range s.Others {
		ok := false
		for _, c := range cs {
			if o.Color == c {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// Nearest returns the visible robot nearest to self and true, or a zero
// view and false when nothing is visible.
func (s Snapshot) Nearest() (RobotView, bool) {
	if len(s.Others) == 0 {
		return RobotView{}, false
	}
	best := s.Others[0]
	bd := s.Self.Pos.Dist2(best.Pos)
	for _, o := range s.Others[1:] {
		if d := s.Self.Pos.Dist2(o.Pos); d < bd {
			bd, best = d, o
		}
	}
	return best, true
}

// NearestDist returns the distance to the nearest visible robot, or +Inf
// when nothing is visible.
func (s Snapshot) NearestDist() float64 {
	v, ok := s.Nearest()
	if !ok {
		return math.Inf(1)
	}
	return s.Self.Pos.Dist(v.Pos)
}

// Action is the outcome of a Compute: a destination (equal to the current
// position to stay put) and the light color to show. The color becomes
// visible to other robots when the Compute completes, before the move
// begins, matching the standard robots-with-lights semantics.
type Action struct {
	Target geom.Point
	Color  Color
}

// Stay builds the action that keeps the robot at p showing color c.
func Stay(p geom.Point, c Color) Action { return Action{Target: p, Color: c} }

// MoveTo builds the action that moves to target showing color c.
func MoveTo(target geom.Point, c Color) Action { return Action{Target: target, Color: c} }

// IsStay reports whether the action keeps the robot at `at`.
func (a Action) IsStay(at geom.Point) bool { return a.Target.Eq(at) }

// Algorithm is a distributed robot algorithm: a pure, deterministic
// function from snapshots to actions. Implementations must not retain
// per-robot state across calls — robots are oblivious, and the engine
// may invoke Compute for different robots in any order, concurrently
// from several goroutines, and before the robot's Compute event (any
// time after the Look that took the snapshot). A Compute must therefore
// be safe to call concurrently and depend on nothing but its snapshot.
// A snapshot's Others is valid only until Compute returns: the engine
// reuses its backing array for later Looks, so an implementation (or a
// test wrapper) that keeps a snapshot past the call must copy Others.
type Algorithm interface {
	// Name identifies the algorithm in traces and experiment tables.
	Name() string
	// Palette declares every color the algorithm may ever set. The
	// engine fails a run if an undeclared color appears; the palette
	// size is the paper's O(1)-colors measurement.
	Palette() []Color
	// Compute maps a snapshot to an action.
	Compute(s Snapshot) Action
}
