package geom_test

// Fuzz targets for the visibility and segment-intersection predicates.
//
// Inputs are decoded onto the int8 integer grid, where the float
// predicates are provably exact: coordinates up to 255 in magnitude
// make every nonzero cross product at least 1, far above Orient's
// scaled tolerance (Eps·L1-scale ≈ 5e-7), so the fuzz oracle — exact
// rational arithmetic and the O(n²) reference — must agree bit for
// bit. Any divergence is a real bug, never a tolerance artifact.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"luxvis/internal/exact"
	"luxvis/internal/geom"
)

// decodePoints reads consecutive (x, y) int8 pairs, capping the swarm
// at 24 points to keep the O(n³) naive oracle cheap per input.
func decodePoints(data []byte) []geom.Point {
	n := len(data) / 2
	if n > 24 {
		n = 24
	}
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(float64(int8(data[2*i])), float64(int8(data[2*i+1])))
	}
	return pts
}

// FuzzVisibleAgainstNaive cross-checks three implementations of the
// obstructed-visibility predicate on every fuzzed configuration: the
// O(n log n) angular-sweep VisibleSetFast, the O(n²) reference
// VisibleFrom, and the exact rational referee.
func FuzzVisibleAgainstNaive(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0})             // collinear chain
	f.Add([]byte{0, 0, 10, 0, 5, 0, 5, 5})            // blocker + witness
	f.Add([]byte{0, 0, 0, 0, 1, 1})                   // coincident pair
	f.Add([]byte{251, 0, 5, 0, 0, 0, 0, 5, 0, 251})   // spokes through origin (-5..5)
	f.Add([]byte{0, 0, 1, 0, 2, 0, 0, 1, 1, 1, 2, 1}) // 3x2 grid
	f.Add([]byte{128, 128, 127, 127, 0, 0})           // extreme corners
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodePoints(data)
		if len(pts) < 2 {
			return
		}
		ex := exact.FromFloats(pts)
		for i := range pts {
			fast := geom.VisibleSetFast(pts, i)
			slices.Sort(fast)
			ref := geom.VisibleFrom(pts, i)
			if !slices.Equal(fast, ref) {
				t.Fatalf("VisibleSetFast(%v, %d) = %v, reference VisibleFrom = %v",
					pts, i, fast, ref)
			}
			for j := range pts {
				got := geom.Visible(pts, i, j)
				want := exact.Visible(ex, i, j)
				if got != want {
					t.Fatalf("Visible(%v, %d, %d) = %v, exact referee says %v",
						pts, i, j, got, want)
				}
			}
		}
		fast := geom.CompleteVisibilityFast(pts)
		if want := exact.CompleteVisibilityFloat(pts); fast != want {
			t.Fatalf("CompleteVisibilityFast(%v) = %v, exact referee says %v",
				pts, fast, want)
		}
	})
}

// decodeSegments reads 8 int8 values as two segments.
func decodeSegments(data []byte) (geom.Segment, geom.Segment, bool) {
	if len(data) < 8 {
		return geom.Segment{}, geom.Segment{}, false
	}
	c := make([]float64, 8)
	for i := range c {
		c[i] = float64(int8(data[i]))
	}
	s := geom.Seg(geom.Pt(c[0], c[1]), geom.Pt(c[2], c[3]))
	u := geom.Seg(geom.Pt(c[4], c[5]), geom.Pt(c[6], c[7]))
	return s, u, true
}

// exactKind classifies the intersection of two int-grid segments with
// rational arithmetic, mirroring Segment.Intersect's four-way verdict.
func exactKind(s, u geom.Segment) geom.IntersectKind {
	a1, b1 := exact.FromFloat(s.A), exact.FromFloat(s.B)
	a2, b2 := exact.FromFloat(u.A), exact.FromFloat(u.B)
	switch {
	case exact.SegmentsProperlyCross(a1, b1, a2, b2):
		return geom.ProperCrossing
	case exact.SegmentsOverlap(a1, b1, a2, b2):
		return geom.Overlapping
	case exact.OnSegment(a1, b1, a2) || exact.OnSegment(a1, b1, b2) ||
		exact.OnSegment(a2, b2, a1) || exact.OnSegment(a2, b2, b1):
		return geom.Touching
	default:
		return geom.NoIntersection
	}
}

// FuzzSegmentCross cross-checks the float segment-intersection
// classifier against the exact rational one, plus two self-
// consistency laws: symmetry in the operands and agreement of
// ProperlyCrosses with the full classifier.
func FuzzSegmentCross(f *testing.F) {
	f.Add([]byte{0, 0, 10, 10, 0, 10, 10, 0})       // proper X crossing
	f.Add([]byte{0, 0, 10, 0, 5, 0, 5, 10})         // T-touch at interior
	f.Add([]byte{0, 0, 10, 0, 5, 0, 15, 0})         // collinear overlap
	f.Add([]byte{0, 0, 10, 0, 10, 0, 20, 10})       // shared endpoint
	f.Add([]byte{0, 0, 1, 1, 5, 5, 6, 6})           // collinear disjoint
	f.Add([]byte{3, 3, 3, 3, 0, 0, 10, 10})         // degenerate on interior
	f.Add([]byte{128, 128, 127, 127, 0, 0, 1, 255}) // extreme coordinates
	f.Fuzz(func(t *testing.T, data []byte) {
		s, u, ok := decodeSegments(data)
		if !ok {
			return
		}
		kind, _ := s.Intersect(u)
		if want := exactKind(s, u); kind != want {
			t.Fatalf("%v.Intersect(%v) = %v, exact referee says %v", s, u, kind, want)
		}
		if back, _ := u.Intersect(s); back != kind {
			t.Fatalf("Intersect is asymmetric: %v vs %v for %v, %v", kind, back, s, u)
		}
		if got := s.ProperlyCrosses(u); got != (kind == geom.ProperCrossing) {
			t.Fatalf("ProperlyCrosses(%v, %v) = %v, classifier says %v", s, u, got, kind)
		}
	})
}

// decodeHullPoints reads a header byte, then (x, y) int8 pairs, capped
// at 200 points so the bucket order (32 points and up) runs often.
// Coordinates are int8·2^(e-30) with e the header's low five bits: steps
// from below Eps (Eq duplicates that are not ==) through ~√Eps (cross
// products at Orient's tolerance) to 2. Header bit 5 shifts every
// coordinate by 1000 (rounded differences). The int8 value -128 decodes
// as -0, so ±0 ties are common, unless bit 7 (NaN) or bit 6 (-Inf, and
// 127 as +Inf) is set.
func decodeHullPoints(data []byte) []geom.Point {
	if len(data) == 0 {
		return nil
	}
	h, data := data[0], data[1:]
	step := math.Ldexp(1, int(h&31)-30)
	coord := func(b byte) float64 {
		v := int8(b)
		var x float64
		switch {
		case v == -128 && h&0x80 != 0:
			return math.NaN()
		case v == -128 && h&0x40 != 0:
			return math.Inf(-1)
		case v == 127 && h&0x40 != 0:
			return math.Inf(1)
		case v == -128:
			x = math.Copysign(0, -1)
		default:
			x = float64(v) * step
		}
		if h&0x20 != 0 {
			x += 1000
		}
		return x
	}
	n := min(len(data)/2, 200)
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(coord(data[2*i]), coord(data[2*i+1]))
	}
	return pts
}

// referenceHull is ConvexHull by comparison sort and an Orient per turn
// of the monotone chain.
func referenceHull(pts []geom.Point) []geom.Point {
	p := slices.Clone(pts)
	slices.SortFunc(p, func(a, b geom.Point) int {
		switch {
		case a.Less(b):
			return -1
		case b.Less(a):
			return 1
		default:
			return 0
		}
	})
	uniq := p[:0]
	for _, q := range p {
		if len(uniq) == 0 || !uniq[len(uniq)-1].Eq(q) {
			uniq = append(uniq, q)
		}
	}
	p = uniq
	n := len(p)
	if n <= 1 {
		return p
	}
	if geom.AllCollinear(p) {
		lo, hi := geom.LineExtremes(p)
		if lo == hi {
			return []geom.Point{p[lo]}
		}
		return []geom.Point{p[lo], p[hi]}
	}
	var hull []geom.Point
	for _, q := range p {
		for len(hull) >= 2 && geom.Orient(hull[len(hull)-2], hull[len(hull)-1], q) != geom.CCW {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, q)
	}
	lower := len(hull) + 1
	for i := n - 2; i >= 0; i-- {
		for len(hull) >= lower && geom.Orient(hull[len(hull)-2], hull[len(hull)-1], p[i]) != geom.CCW {
			hull = hull[:len(hull)-1]
		}
		hull = append(hull, p[i])
	}
	return hull[:len(hull)-1]
}

// sameCorners compares corner lists coordinate by coordinate under ==
// (so -0 matches +0), with NaN matching NaN.
func sameCorners(a, b []geom.Point) bool {
	eq := func(x, y float64) bool { return x == y || (math.IsNaN(x) && math.IsNaN(y)) }
	return slices.EqualFunc(a, b, func(p, q geom.Point) bool { return eq(p.X, q.X) && eq(p.Y, q.Y) })
}

// FuzzConvexHull checks ConvexHull against referenceHull, and, for
// inputs without NaN, that reversing or shuffling the input leaves the
// corners unchanged. With a NaN, Less is no order and the input order
// decides the hull for both implementations alike.
func FuzzConvexHull(f *testing.F) {
	f.Add([]byte{30, 0, 0, 4, 0, 4, 4, 0, 4, 2, 2})   // square and its center
	f.Add([]byte{30, 0, 0, 1, 1, 2, 2, 3, 3})         // collinear run
	f.Add([]byte{15, 0, 0, 0, 0, 1, 0, 0, 1, 128, 0}) // duplicates, ±0, step 2^-15
	f.Fuzz(func(t *testing.T, data []byte) {
		pts := decodeHullPoints(data)
		got := geom.ConvexHull(pts).Corners
		if want := referenceHull(pts); !sameCorners(got, want) {
			t.Fatalf("ConvexHull(%v) = %v, reference %v", pts, got, want)
		}
		if slices.ContainsFunc(pts, func(p geom.Point) bool { return math.IsNaN(p.X) || math.IsNaN(p.Y) }) {
			return
		}
		perm := slices.Clone(pts)
		slices.Reverse(perm)
		if back := geom.ConvexHull(perm).Corners; !sameCorners(back, got) {
			t.Fatalf("ConvexHull of reversed %v = %v, of the input %v", pts, back, got)
		}
		rand.New(rand.NewSource(int64(len(data)))).Shuffle(len(perm), func(i, j int) {
			perm[i], perm[j] = perm[j], perm[i]
		})
		if shuf := geom.ConvexHull(perm).Corners; !sameCorners(shuf, got) {
			t.Fatalf("ConvexHull of shuffled %v = %v, of the input %v", pts, shuf, got)
		}
	})
}

// TestConvexHullLargeAndSubnormal covers the two bucket-order paths the
// fuzz decoding cannot reach: more than 1023 points (bucket counts on
// the heap) and an X span so small that n/span overflows.
func TestConvexHullLargeAndSubnormal(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	large := make([]geom.Point, 2000)
	for i := range large {
		large[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	tiny := make([]geom.Point, 40)
	for i := range tiny {
		tiny[i] = geom.Pt(float64(i%2)*math.SmallestNonzeroFloat64, float64(i))
	}
	for _, pts := range [][]geom.Point{large, tiny} {
		if got, want := geom.ConvexHull(pts).Corners, referenceHull(pts); !sameCorners(got, want) {
			t.Fatalf("ConvexHull of %d points = %v, reference %v", len(pts), got, want)
		}
	}
}
