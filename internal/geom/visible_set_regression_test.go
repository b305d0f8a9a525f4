package geom_test

// Regression tests for two visibility-precision bugs:
//
//  1. The ±π branch cut: math.Atan2 maps nearly-opposite-ε rays to +π
//     and −π+ε, and the old VisibleSetFast only paired the first and
//     last direction buckets instead of chaining them circularly, so a
//     three-ray chain straddling the cut could report a blocked robot
//     as visible.
//
//  2. Scale-dependence of the folded-angle tolerance: the collinearity
//     predicates accept cross products up to Eps·L1-scale, an angular
//     acceptance that grows like Eps/d² for points at distance d from
//     the observer — at close range it dwarfs the old fixed 1e-6
//     direction-bucket tolerance, so true collinear triples (and the
//     obstructions they imply) were silently missed.
//
// Each test fails on the pre-fix implementation.

import (
	"math"
	"slices"
	"testing"

	"luxvis/internal/geom"
)

func polar(r, theta float64) geom.Point {
	return geom.Pt(r*math.Cos(theta), r*math.Sin(theta))
}

// TestVisibleSetFastBranchCutChain is the three-ray chain across the
// branch cut: from the observer, A and B sit just below −π+tol and C
// just below +π, so circularly A, B and C chain into one direction
// bucket. C (nearest) blocks both others; the pre-fix code only merged
// C's bucket with the single leading ray A and reported B visible.
func TestVisibleSetFastBranchCutChain(t *testing.T) {
	const tol = 1e-6 // the direction-bucket tolerance floor
	pts := []geom.Point{
		geom.Pt(0, 0),
		polar(0.004, -math.Pi+0.2*tol), // A: farthest, just past the cut
		polar(0.002, -math.Pi+0.9*tol), // B: chained to A, not to C directly
		polar(0.001, math.Pi-0.3*tol),  // C: nearest, on the +π side
	}
	got := geom.VisibleSetFast(pts, 0)
	if want := []int{3}; !slices.Equal(got, want) {
		t.Fatalf("VisibleSetFast across the ±π cut = %v, want %v (C blocks A and B)", got, want)
	}
	for i := range pts {
		fast := geom.VisibleSetFast(pts, i)
		ref := geom.VisibleFrom(pts, i)
		if !slices.Equal(fast, ref) {
			t.Fatalf("VisibleSetFast(%v, %d) = %v, reference VisibleFrom = %v", pts, i, fast, ref)
		}
	}
}

// TestVisibleSetFastNegativeXAxis pins the exact negative x-axis: a −0.0
// y-coordinate makes Atan2 return −π instead of +π for the same
// geometric direction, the worst case of the branch cut.
func TestVisibleSetFastNegativeXAxis(t *testing.T) {
	pts := []geom.Point{
		geom.Pt(0, 0),
		geom.Pt(-1, 0),                    // θ = +π from the observer
		geom.Pt(-2, math.Copysign(0, -1)), // θ = −π from the observer, same ray
		geom.Pt(1, 0),
	}
	got := geom.VisibleSetFast(pts, 0)
	if want := []int{1, 3}; !slices.Equal(got, want) {
		t.Fatalf("VisibleSetFast on the negative x-axis = %v, want %v ((-1,0) blocks (-2,-0))", got, want)
	}
	for i := range pts {
		fast := geom.VisibleSetFast(pts, i)
		ref := geom.VisibleFrom(pts, i)
		if !slices.Equal(fast, ref) {
			t.Fatalf("VisibleSetFast(%v, %d) = %v, reference VisibleFrom = %v", pts, i, fast, ref)
		}
	}
}

// TestCompleteVisibilityFastLargeCoordinates is the scale-dependence
// fixture: at coordinates near 1e4, two points 1e-4 from a third are
// accepted as collinear by AreCollinear (cross 5e-10 ≤ its scaled
// tolerance) while their direction gap, 0.025 rad, is four orders of
// magnitude above the old fixed folding tolerance — so the pre-fix
// collinear scan missed the triple and CompleteVisibilityFast
// contradicted CompleteVisibility.
func TestCompleteVisibilityFastLargeCoordinates(t *testing.T) {
	k := geom.Pt(1e4, 1e4)
	pts := []geom.Point{
		k,
		k.Add(geom.Pt(1e-4, 0)),
		k.Add(geom.Pt(2e-4, 5e-6)),
	}
	if geom.CompleteVisibility(pts) {
		t.Fatalf("fixture is broken: the O(n³) reference should reject %v", pts)
	}
	kern := geom.NewKernel(1)
	defer kern.Close()
	if kern.CompleteVisibilityFast(pts) {
		t.Fatalf("CompleteVisibilityFast(%v) = true, but point 1 blocks point 2 from point 0", pts)
	}
	if !geom.CollinearCandidates(pts, 0, func(geom.Triple) bool { return true }) {
		t.Fatalf("CollinearCandidates(%v) found nothing, want the (1, 2, blocker 0) line", pts)
	}
	for i := range pts {
		fast := geom.VisibleSetFast(pts, i)
		ref := geom.VisibleFrom(pts, i)
		if !slices.Equal(fast, ref) {
			t.Fatalf("VisibleSetFast(%v, %d) = %v, reference VisibleFrom = %v", pts, i, fast, ref)
		}
	}
}

// TestCollinearCandidatesScaleContract re-checks the superset contract
// CollinearCandidates documents for the exact checker on the
// large-coordinate fixture: every confirmed triple must appear among the
// candidates regardless of coordinate magnitude.
func TestCollinearCandidatesScaleContract(t *testing.T) {
	k := geom.Pt(1e4, 1e4)
	pts := []geom.Point{
		k,
		k.Add(geom.Pt(1e-4, 0)),
		k.Add(geom.Pt(2e-4, 5e-6)),
		k.Add(geom.Pt(-3, 7)), // an unrelated, well-separated witness
	}
	var cands []geom.Triple
	found := geom.CollinearCandidates(pts, 1e-5, func(c geom.Triple) bool {
		cands = append(cands, c)
		return c.Blocker == 0 && ((c.A == 1 && c.B == 2) || (c.A == 2 && c.B == 1))
	})
	if !found {
		t.Fatalf("CollinearCandidates(%v, 1e-5) = %v, missing the (1, 2) pair through observer 0", pts, cands)
	}
}
