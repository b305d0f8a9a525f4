package geom

import "math"

// Orientation is the sign of the signed area of an ordered point triple.
type Orientation int

// Orientation values. CCW is a left turn, CW a right turn.
const (
	CW        Orientation = -1
	Collinear Orientation = 0
	CCW       Orientation = 1
)

func (o Orientation) String() string {
	switch o {
	case CW:
		return "cw"
	case CCW:
		return "ccw"
	default:
		return "collinear"
	}
}

// Cross2 returns the cross product (b-a) × (c-a): positive when a,b,c make
// a left turn, negative for a right turn, zero when collinear.
func Cross2(a, b, c Point) float64 {
	return (b.X-a.X)*(c.Y-a.Y) - (b.Y-a.Y)*(c.X-a.X)
}

// Orient classifies the ordered triple (a, b, c). The collinearity band is
// scaled by the magnitude of the coordinates involved so that the
// predicate behaves consistently for swarms far from the origin. The
// scale uses the L1 norm — within √2 of Euclidean and far cheaper, and
// this is the hottest function in the simulator.
func Orient(a, b, c Point) Orientation {
	cr := Cross2(a, b, c)
	ab := abs(b.X-a.X) + abs(b.Y-a.Y)
	ac := abs(c.X-a.X) + abs(c.Y-a.Y)
	scale := ab
	if ac > scale {
		scale = ac
	}
	if scale < 1 {
		scale = 1
	}
	tol := Eps * scale
	switch {
	case cr > tol:
		return CCW
	case cr < -tol:
		return CW
	default:
		return Collinear
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// AreCollinear reports whether a, b and c lie on one line within tolerance.
func AreCollinear(a, b, c Point) bool { return Orient(a, b, c) == Collinear }

// StrictlyBetween reports whether m lies strictly inside the open segment
// (a, b): collinear with a and b, and strictly between them. This is the
// obstruction predicate of the robots-with-lights model — robot m blocks a
// from seeing b exactly when StrictlyBetween(a, b, m).
func StrictlyBetween(a, b, m Point) bool {
	if !AreCollinear(a, b, m) {
		return false
	}
	// Project onto the dominant axis of ab to avoid a second tolerance.
	d := b.Sub(a)
	var ta, tb, tm float64
	if math.Abs(d.X) >= math.Abs(d.Y) {
		ta, tb, tm = a.X, b.X, m.X
	} else {
		ta, tb, tm = a.Y, b.Y, m.Y
	}
	lo, hi := math.Min(ta, tb), math.Max(ta, tb)
	return tm > lo+Eps && tm < hi-Eps
}

// OnSegment reports whether m lies on the closed segment [a, b], endpoints
// included, within tolerance.
func OnSegment(a, b, m Point) bool {
	if !AreCollinear(a, b, m) {
		return false
	}
	d := b.Sub(a)
	if abs(d.X) <= Eps && abs(d.Y) <= Eps {
		// Degenerate segment: projection onto a dominant axis would
		// ignore the other coordinate entirely, so [a, a] would
		// "contain" any point sharing one coordinate with a. It
		// contains only a itself.
		return abs(m.X-a.X) <= Eps && abs(m.Y-a.Y) <= Eps
	}
	var ta, tb, tm float64
	if math.Abs(d.X) >= math.Abs(d.Y) {
		ta, tb, tm = a.X, b.X, m.X
	} else {
		ta, tb, tm = a.Y, b.Y, m.Y
	}
	lo, hi := math.Min(ta, tb), math.Max(ta, tb)
	return tm >= lo-Eps && tm <= hi+Eps
}

// AllCollinear reports whether every point in pts lies on a single line.
// Sets of fewer than three points are trivially collinear. For finite
// points the answer depends only on the point multiset, not on its
// order: the base line runs from the least point under Less to the
// point farthest from it (the least such under Less on a tie), so every
// permutation tests the same line from the same anchor. Ties under Less
// are points with == coordinates, which make the same tests. That is
// what lets snapshots of one position state share the answer (see
// model.World).
func AllCollinear(pts []Point) bool {
	if len(pts) < 3 {
		return true
	}
	ai := 0
	for i, p := range pts {
		if p.Less(pts[ai]) {
			ai = i
		}
	}
	a := pts[ai]
	bi, bd := -1, 0.0
	for i, p := range pts {
		if i == ai {
			continue
		}
		if d := p.Dist2(a); bi < 0 || d > bd || d == bd && p.Less(pts[bi]) {
			bi, bd = i, d
		}
	}
	b := pts[bi]
	for _, p := range pts {
		if !AreCollinear(a, b, p) {
			return false
		}
	}
	return true
}

// LineExtremes returns the indices of the two extreme points of a
// collinear point set (the endpoints of the segment spanned by pts). It
// panics if pts has fewer than two points; callers establish
// AllCollinear(pts) first.
func LineExtremes(pts []Point) (lo, hi int) {
	if len(pts) < 2 {
		panic("geom: LineExtremes needs at least two points")
	}
	min, max := BoundingBox(pts)
	d := max.Sub(min)
	horizontal := math.Abs(d.X) >= math.Abs(d.Y)
	lo, hi = 0, 0
	for i, p := range pts {
		key := p.Y
		cur := pts[lo].Y
		curHi := pts[hi].Y
		if horizontal {
			key, cur, curHi = p.X, pts[lo].X, pts[hi].X
		}
		if key < cur {
			lo = i
		}
		if key > curHi {
			hi = i
		}
	}
	return lo, hi
}

// ProjectOntoLine returns the orthogonal projection of p onto the infinite
// line through a and b, and the line parameter t such that the projection
// equals a + t·(b-a). It panics when a and b coincide.
func ProjectOntoLine(a, b, p Point) (Point, float64) {
	d := b.Sub(a)
	n2 := d.Norm2()
	if n2 == 0 {
		panic("geom: ProjectOntoLine with coincident line points")
	}
	t := p.Sub(a).Dot(d) / n2
	return a.Add(d.Mul(t)), t
}

// DistToLine returns the distance from p to the infinite line through a, b.
func DistToLine(a, b, p Point) float64 {
	proj, _ := ProjectOntoLine(a, b, p)
	return p.Dist(proj)
}

// SideOfLine returns which side of the directed line a→b the point p lies
// on: CCW for the left half-plane, CW for the right, Collinear on the line.
func SideOfLine(a, b, p Point) Orientation { return Orient(a, b, p) }
