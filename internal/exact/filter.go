package exact

import (
	"cmp"
	"math"
	"slices"

	"luxvis/internal/geom"
)

// epsilon is the unit roundoff of float64 round-to-nearest: every
// rounded +, −, × of finite operands whose result lies in the normal
// range carries a relative error of at most epsilon.
const epsilon = 0x1p-53

// orientErrBound is Shewchuk's orient2d stage-A coefficient (Shewchuk
// 1997, "Adaptive Precision Floating-Point Arithmetic and Fast Robust
// Geometric Predicates"): the float determinant's error is below
// orientErrBound·(|detl|+|detr|), the rounding of the bound's own
// product included. The constant is exact in float64.
const orientErrBound = (3 + 16*epsilon) * epsilon

// orientFilterFloor is the smallest |detl|+|detr| the filter trusts.
// The stage-A bound assumes no underflow. A product of coordinate
// differences that lands below the normal range can be off by up to
// 2⁻¹⁰⁷⁵ absolutely (the differences themselves are exact there).
// Sign certification needs only about (3ε+12ε²)·(|detl|+|detr|), so the
// bound has ≈ε²·(|detl|+|detr|) of slack, which absorbs two such losses
// once the sum exceeds 2⁻⁹⁶⁸. The floor keeps a factor-of-256 margin
// over that and keeps the bound itself in the normal range.
const orientFilterFloor = 0x1p-960

// orientFilter returns the sign of the cross product (b−a)×(c−a) when
// float arithmetic certifies it, with ok = true; the sign then equals
// OrientSign over the exact conversions of a, b, c. It never certifies
// a zero sign: exactly collinear and near-degenerate triples, triples
// whose determinant terms underflow or overflow, and non-finite inputs
// all return ok = false, leaving the decision to big.Rat.
func orientFilter(a, b, c geom.Point) (sign int, ok bool) {
	detl := (b.X - a.X) * (c.Y - a.Y)
	detr := (b.Y - a.Y) * (c.X - a.X)
	det := detl - detr
	detsum := math.Abs(detl) + math.Abs(detr)
	// NaN fails both comparisons; ±Inf (overflow or infinite input)
	// fails the upper one.
	if !(detsum >= orientFilterFloor && detsum <= math.MaxFloat64) {
		return 0, false
	}
	bound := orientErrBound * detsum
	switch {
	case det > bound:
		return 1, true
	case det < -bound:
		return -1, true
	}
	return 0, false
}

// lazyPoints converts float points to exact ones on first use, so the
// filtered predicates pay for big.Rat only on the points of candidates
// the float filter could not certify.
type lazyPoints struct {
	pts []geom.Point
	eps []Point
}

func (l *lazyPoints) at(i int) Point {
	if l.eps == nil {
		l.eps = make([]Point, len(l.pts))
	}
	if l.eps[i].X == nil {
		l.eps[i] = FromFloat(l.pts[i])
	}
	return l.eps[i]
}

// requireFinite panics on NaN/Inf coordinates, like FromFloat.
func requireFinite(pts []geom.Point) {
	for _, p := range pts {
		if !p.IsFinite() {
			panic("exact: non-finite coordinate")
		}
	}
}

// coincident reports, exactly, whether a selected point shares its
// position with any other point (selected or not); a nil mask selects
// every point. Conversion to big.Rat is lossless, so float equality is
// rational equality: sorting by (X, Y) makes coincident points adjacent
// at O(n log n). cmp.Compare orders −0 and +0 as equal, matching the
// rationals. The points must be finite.
func coincident(pts []geom.Point, selected []bool) bool {
	idx := make([]int, len(pts))
	for i := range idx {
		idx[i] = i
	}
	byPos := func(i, j int) int {
		if c := cmp.Compare(pts[i].X, pts[j].X); c != 0 {
			return c
		}
		return cmp.Compare(pts[i].Y, pts[j].Y)
	}
	slices.SortFunc(idx, byPos)
	for lo := 0; lo < len(idx); {
		hi, sel := lo+1, selected == nil || selected[idx[lo]]
		for ; hi < len(idx) && byPos(idx[lo], idx[hi]) == 0; hi++ {
			sel = sel || selected[idx[hi]]
		}
		if hi-lo > 1 && sel {
			return true
		}
		lo = hi
	}
	return false
}

// anyCandidateConfirmed runs the float angular candidate scan over pts
// and reports whether confirm holds, exactly, for some candidate triple
// (endpoints a, b; middle m) whose endpoints are both selected (nil =
// all). Candidates the orientation filter certifies as non-collinear
// are skipped without touching big.Rat; confirm must be false for every
// non-collinear triple.
func anyCandidateConfirmed(pts []geom.Point, selected []bool, confirm func(a, b, m Point) bool) bool {
	eps := lazyPoints{pts: pts}
	for _, t := range geom.CollinearCandidates(pts, candidateTol) {
		if t.A == t.Blocker || t.B == t.Blocker {
			// Degenerate duplicate marker from the scan; coincident
			// points are decided exactly by the caller.
			continue
		}
		if selected != nil && (!selected[t.A] || !selected[t.B]) {
			continue
		}
		if _, ok := orientFilter(pts[t.A], pts[t.B], pts[t.Blocker]); ok {
			continue
		}
		if confirm(eps.at(t.A), eps.at(t.B), eps.at(t.Blocker)) {
			return true
		}
	}
	return false
}
