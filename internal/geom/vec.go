// Package geom is the planar geometry kernel used by the luxvis simulator
// and algorithms. It provides points/vectors, orientation and betweenness
// predicates, segments and their intersections, convex hulls with
// corner/edge-point classification, circles and shallow arcs, and the
// obstructed-visibility predicates of the robots-with-lights model. Its
// visibility Kernel keeps no configuration state: VisibleRow builds one
// Look's row into the caller's buffer, ClearAround checks one moved
// point, and CompleteVisibilityFast fans the whole-swarm check out over
// a worker pool.
//
// All computations use float64 with a relative epsilon; the companion
// package internal/exact re-implements the safety-critical predicates over
// big.Rat so that the simulation *checker* is immune to rounding. The
// algorithms themselves deliberately keep clear of degeneracies (targets
// are placed in open interval interiors, bulges are strictly positive), so
// float64 is adequate for the decision side.
package geom

import (
	"fmt"
	"math"
)

// Eps is the absolute tolerance used by the float predicates. Coordinates
// in luxvis simulations live in roughly [0, 1e4], so 1e-9 gives about six
// orders of magnitude of slack above the 1e-15 float64 noise floor while
// staying far below any distance the algorithms ever construct.
const Eps = 1e-9

// Point is a point (or free vector) in the plane.
type Point struct {
	X, Y float64
}

// Pt is shorthand for Point{x, y}.
func Pt(x, y float64) Point { return Point{x, y} }

// Add returns p + q.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Mul returns the scalar product s·p.
func (p Point) Mul(s float64) Point { return Point{p.X * s, p.Y * s} }

// Neg returns -p.
func (p Point) Neg() Point { return Point{-p.X, -p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z-component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Norm2 returns the squared Euclidean length of p.
func (p Point) Norm2() float64 { return p.X*p.X + p.Y*p.Y }

// Dist returns the Euclidean distance |p - q|.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// Dist2 returns the squared Euclidean distance |p - q|².
func (p Point) Dist2(q Point) float64 { return p.Sub(q).Norm2() }

// Unit returns p scaled to unit length. The zero vector is returned
// unchanged (callers must not rely on Unit of a zero vector).
func (p Point) Unit() Point {
	n := p.Norm()
	if n == 0 {
		return p
	}
	return p.Mul(1 / n)
}

// Perp returns p rotated by +90 degrees (counterclockwise).
func (p Point) Perp() Point { return Point{-p.Y, p.X} }

// Rotate returns p rotated about the origin by the given angle (radians,
// counterclockwise).
func (p Point) Rotate(angle float64) Point {
	s, c := math.Sincos(angle)
	return Point{p.X*c - p.Y*s, p.X*s + p.Y*c}
}

// RotateAround returns p rotated about center by the given angle.
func (p Point) RotateAround(center Point, angle float64) Point {
	return p.Sub(center).Rotate(angle).Add(center)
}

// Angle returns the polar angle of p in (-π, π].
func (p Point) Angle() float64 { return math.Atan2(p.Y, p.X) }

// Lerp returns the point (1-t)·p + t·q.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

// Mid returns the midpoint of p and q.
func (p Point) Mid(q Point) Point { return p.Lerp(q, 0.5) }

// Eq reports whether p and q coincide within Eps in both coordinates.
func (p Point) Eq(q Point) bool {
	return math.Abs(p.X-q.X) <= Eps && math.Abs(p.Y-q.Y) <= Eps
}

// Less orders points lexicographically by (X, Y). It is the tie-break
// order used by the hull and by deterministic sorting throughout luxvis.
func (p Point) Less(q Point) bool {
	if p.X != q.X {
		return p.X < q.X
	}
	return p.Y < q.Y
}

// IsFinite reports whether both coordinates are finite numbers.
func (p Point) IsFinite() bool {
	return !math.IsNaN(p.X) && !math.IsInf(p.X, 0) &&
		!math.IsNaN(p.Y) && !math.IsInf(p.Y, 0)
}

// String formats the point for diagnostics.
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Centroid returns the arithmetic mean of the given points. It panics if
// pts is empty: a centroid of nothing is a caller bug, not a data case.
func Centroid(pts []Point) Point {
	if len(pts) == 0 {
		panic("geom: Centroid of empty point set")
	}
	var s Point
	for _, p := range pts {
		s = s.Add(p)
	}
	return s.Mul(1 / float64(len(pts)))
}

// BoundingBox returns the axis-aligned bounding box (min, max) of pts.
// It panics if pts is empty.
func BoundingBox(pts []Point) (min, max Point) {
	if len(pts) == 0 {
		panic("geom: BoundingBox of empty point set")
	}
	min, max = pts[0], pts[0]
	for _, p := range pts[1:] {
		min.X = math.Min(min.X, p.X)
		min.Y = math.Min(min.Y, p.Y)
		max.X = math.Max(max.X, p.X)
		max.Y = math.Max(max.Y, p.Y)
	}
	return min, max
}

// MinPairwiseDist returns the smallest pairwise distance among pts, or
// +Inf if fewer than two points are given. Small inputs use the direct
// O(n²) scan; larger ones delegate to the O(n log n) ClosestPair.
func MinPairwiseDist(pts []Point) float64 {
	if len(pts) < 2 {
		return math.Inf(1)
	}
	if len(pts) > 256 {
		_, _, d := ClosestPair(pts)
		return d
	}
	best := math.Inf(1)
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if d := pts[i].Dist(pts[j]); d < best {
				best = d
			}
		}
	}
	return best
}
