package geom

import (
	"math"
	"slices"
)

// Hull is the convex hull of a point set. Corners holds the strict hull
// corners in counterclockwise order, with no three consecutive corners
// collinear; collinear boundary points are deliberately excluded from
// Corners and classified as edge points instead, because the Complete
// Visibility algorithms treat corners and edge robots differently.
type Hull struct {
	// Corners are the strict hull vertices in CCW order.
	Corners []Point
}

// ConvexHull computes the convex hull of pts using Andrew's monotone
// chain. Duplicate points are tolerated. For fewer than three distinct
// points the hull degenerates: two corners for a segment, one for a point,
// zero for an empty input.
//
// The (x, y) order the chain needs is built in linear time: pts are
// scattered into n buckets by X over [minX, maxX], then one insertion
// pass by Point.Less finishes the order inside each bucket. The bucket
// index is monotone in X, so the result is the order a comparison sort
// gives, up to ties: Less ties only points whose coordinates are ==
// (identical, or apart in the sign of a zero), and the dedupe below
// keeps one of each such run, so the corners match the comparison
// sort's under ==. The comparison sort still runs for fewer than 32
// points, for a zero, infinite or subnormal X span, for any NaN (Less
// is no strict weak order then, and a different algorithm could order
// the input differently), and when a bucket holds more than 64 points
// (clustered X, where the insertion pass would go quadratic).
//
// Each chain turn compares the cross product against one set-wide
// bound, Eps·max(1, X span + Y span) of the deduplicated points, and
// calls Orient only when it falls inside; orientBound says why that
// gives Orient's answer exactly.
func ConvexHull(pts []Point) Hull {
	p := sortedXY(pts)
	// Remove duplicates.
	uniq := p[:0]
	for _, q := range p {
		if len(uniq) == 0 || !uniq[len(uniq)-1].Eq(q) {
			uniq = append(uniq, q)
		}
	}
	p = uniq
	n := len(p)
	if n == 0 {
		return Hull{}
	}
	if n == 1 {
		return Hull{Corners: []Point{p[0]}}
	}
	if AllCollinear(p) {
		lo, hi := LineExtremes(p)
		if lo == hi {
			return Hull{Corners: []Point{p[lo]}}
		}
		return Hull{Corners: []Point{p[lo], p[hi]}}
	}

	// Build lower then upper chain, keeping only strict left turns so
	// that collinear boundary points are dropped from the corner list.
	bound := orientBound(p)
	leftTurn := func(a, b, c Point) bool {
		switch cr := Cross2(a, b, c); {
		case cr > bound:
			return true
		case cr < -bound:
			return false
		default:
			return Orient(a, b, c) == CCW
		}
	}
	hull := make([]Point, 0, 2*n)
	for _, q := range p {
		for len(hull) >= 2 && !leftTurn(hull[len(hull)-2], hull[len(hull)-1], q) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, q)
	}
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		q := p[i]
		for len(hull) >= lower && !leftTurn(hull[len(hull)-2], hull[len(hull)-1], q) {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, q)
	}
	return Hull{Corners: hull[:len(hull)-1]}
}

// orientBound returns a tolerance no smaller than Orient's for any
// triple drawn from p: Eps·max(1, (maxX-minX)+(maxY-minY)). Orient(a,
// b, c) compares Cross2(a, b, c) against Eps·max(1, |b-a|₁, |c-a|₁).
// For points of p, |b.X-a.X| ≤ maxX-minX holds exactly, and rounding
// is monotone, so the rounded difference is at most the rounded span;
// the same holds for Y, for the sum of the two, and for the product
// with Eps. Hence a cross product above the bound is CCW and one below
// its negation is CW, exactly as Orient would answer, and only the band
// in between needs Orient. A NaN anywhere makes the bound NaN and an
// infinite coordinate makes it infinite or NaN: then no comparison
// holds and every turn goes to Orient.
func orientBound(p []Point) float64 {
	minX, maxX, minY, maxY := p[0].X, p[0].X, p[0].Y, p[0].Y
	for _, q := range p {
		if math.IsNaN(q.X) || math.IsNaN(q.Y) {
			return math.NaN()
		}
		if q.X < minX {
			minX = q.X
		} else if q.X > maxX {
			maxX = q.X
		}
		if q.Y < minY {
			minY = q.Y
		} else if q.Y > maxY {
			maxY = q.Y
		}
	}
	return Eps * max(1, (maxX-minX)+(maxY-minY))
}

// sortedXY returns a fresh copy of pts in Point.Less order; see
// ConvexHull for the bucket order and its fallbacks.
func sortedXY(pts []Point) []Point {
	n := len(pts)
	p := make([]Point, n)
	if n < 32 || !bucketXY(pts, p) {
		copy(p, pts)
		slices.SortFunc(p, func(a, b Point) int {
			switch {
			case a.Less(b):
				return -1
			case b.Less(a):
				return 1
			default:
				return 0
			}
		})
	}
	return p
}

// bucketXY scatters pts into p (of equal length) by X in n buckets and
// insertion-sorts the result by Point.Less. It reports false, leaving p
// unspecified, when the bucket order does not apply: a zero, infinite or
// subnormal X span, a NaN coordinate, or a bucket over 64 points.
func bucketXY(pts, p []Point) bool {
	n := len(pts)
	minX, maxX := pts[0].X, pts[0].X
	for _, q := range pts {
		if math.IsNaN(q.X) || math.IsNaN(q.Y) {
			return false
		}
		if q.X < minX {
			minX = q.X
		} else if q.X > maxX {
			maxX = q.X
		}
	}
	span := maxX - minX
	scale := float64(n) / span
	if !(span > 0) || math.IsInf(span, 0) || math.IsInf(scale, 0) {
		return false
	}
	// Counts for local hulls up to 1023 points stay on the stack.
	var stack [1024]int32
	var cnt []int32
	if n < len(stack) {
		cnt = stack[:n+1]
	} else {
		cnt = make([]int32, n+1)
	}
	bucketOf := func(x float64) int {
		c := int((x - minX) * scale)
		if c >= n {
			c = n - 1
		}
		return c
	}
	for _, q := range pts {
		c := bucketOf(q.X)
		cnt[c+1]++
		if cnt[c+1] > 64 {
			return false
		}
	}
	for c := 1; c <= n; c++ {
		cnt[c] += cnt[c-1]
	}
	for _, q := range pts {
		c := bucketOf(q.X)
		p[cnt[c]] = q
		cnt[c]++
	}
	// Buckets are ordered relative to each other (equal X shares a
	// bucket), so this pass never moves a point across a bucket edge.
	for i := 1; i < n; i++ {
		for j := i; j > 0 && p[j].Less(p[j-1]); j-- {
			p[j], p[j-1] = p[j-1], p[j]
		}
	}
	return true
}

// Degenerate reports whether the hull has fewer than three corners (the
// point set was empty, a single point, or fully collinear).
func (h Hull) Degenerate() bool { return len(h.Corners) < 3 }

// Area returns the (positive) area enclosed by the hull, zero for
// degenerate hulls.
func (h Hull) Area() float64 {
	if h.Degenerate() {
		return 0
	}
	var a float64
	n := len(h.Corners)
	for i := 0; i < n; i++ {
		j := (i + 1) % n
		a += h.Corners[i].Cross(h.Corners[j])
	}
	if a < 0 {
		a = -a
	}
	return a / 2
}

// Perimeter returns the total boundary length of the hull.
func (h Hull) Perimeter() float64 {
	n := len(h.Corners)
	if n < 2 {
		return 0
	}
	var s float64
	for i := 0; i < n; i++ {
		s += h.Corners[i].Dist(h.Corners[(i+1)%n])
	}
	return s
}

// PointClass classifies a point relative to a convex hull.
type PointClass int

const (
	// HullCorner: the point is a strict corner of the hull.
	HullCorner PointClass = iota
	// HullEdge: the point lies on the hull boundary strictly between two
	// corners.
	HullEdge
	// HullInterior: the point lies strictly inside the hull.
	HullInterior
	// HullOutside: the point lies strictly outside the hull.
	HullOutside
)

func (c PointClass) String() string {
	switch c {
	case HullCorner:
		return "corner"
	case HullEdge:
		return "edge"
	case HullInterior:
		return "interior"
	case HullOutside:
		return "outside"
	default:
		return "unknown"
	}
}

// Classify locates p relative to the hull. For degenerate hulls (all
// points collinear) corners are the segment endpoints, edge points are the
// interior of the segment, and everything off the line is outside.
func (h Hull) Classify(p Point) PointClass {
	n := len(h.Corners)
	switch n {
	case 0:
		return HullOutside
	case 1:
		if h.Corners[0].Eq(p) {
			return HullCorner
		}
		return HullOutside
	case 2:
		a, b := h.Corners[0], h.Corners[1]
		if a.Eq(p) || b.Eq(p) {
			return HullCorner
		}
		if StrictlyBetween(a, b, p) {
			return HullEdge
		}
		return HullOutside
	}
	for _, c := range h.Corners {
		if c.Eq(p) {
			return HullCorner
		}
	}
	onEdge := false
	for i := 0; i < n; i++ {
		a, b := h.Corners[i], h.Corners[(i+1)%n]
		switch Orient(a, b, p) {
		case CW:
			return HullOutside
		case Collinear:
			if OnSegment(a, b, p) {
				onEdge = true
			} else {
				return HullOutside
			}
		case CCW:
			// strictly inside this edge's half-plane; keep going
		}
	}
	if onEdge {
		return HullEdge
	}
	return HullInterior
}

// EdgeOf returns the hull edge (corner pair, CCW order) whose closed
// segment contains p, for points classified HullEdge or HullCorner. ok is
// false when p is not on the boundary.
func (h Hull) EdgeOf(p Point) (a, b Point, ok bool) {
	n := len(h.Corners)
	if n == 2 {
		if OnSegment(h.Corners[0], h.Corners[1], p) {
			return h.Corners[0], h.Corners[1], true
		}
		return Point{}, Point{}, false
	}
	for i := 0; i < n; i++ {
		a, b := h.Corners[i], h.Corners[(i+1)%n]
		if OnSegment(a, b, p) {
			return a, b, true
		}
	}
	return Point{}, Point{}, false
}

// Contains reports whether p lies in the closed hull region.
func (h Hull) Contains(p Point) bool {
	c := h.Classify(p)
	return c == HullCorner || c == HullEdge || c == HullInterior
}

// StrictlyConvexPosition reports whether every point of pts is a strict
// corner of the hull of pts and all points are distinct. Points in
// strictly convex position are pairwise mutually visible, which is the
// terminal configuration of the Complete Visibility algorithms.
func StrictlyConvexPosition(pts []Point) bool {
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Eq(pts[j]) {
				return false
			}
		}
	}
	if len(pts) <= 2 {
		return true
	}
	h := ConvexHull(pts)
	if h.Degenerate() {
		// Three or more collinear points are never strictly convex.
		return false
	}
	if len(h.Corners) != len(pts) {
		return false
	}
	return true
}
