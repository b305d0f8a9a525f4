package geom

// Edge-case batteries for the predicates the algorithms lean on hardest:
// hull classification at boundaries, arcs at extreme sagittas, visibility
// under exact degeneracy, and tolerance behaviour far from the origin.

import (
	"math"
	"math/rand"
	"testing"
)

func TestClassifyNearBoundary(t *testing.T) {
	h := ConvexHull([]Point{Pt(0, 0), Pt(100, 0), Pt(100, 100), Pt(0, 100)})
	cases := []struct {
		name string
		p    Point
		want PointClass
	}{
		{"just inside bottom", Pt(50, 1e-3), HullInterior},
		{"just outside bottom", Pt(50, -1e-3), HullOutside},
		{"well within corner tolerance", Pt(1e-12, 1e-12), HullCorner},
		{"edge midpoint", Pt(50, 0), HullEdge},
		{"outside near corner", Pt(-1e-3, -1e-3), HullOutside},
	}
	for _, c := range cases {
		if got := h.Classify(c.p); got != c.want {
			t.Errorf("%s: Classify(%v) = %v, want %v", c.name, c.p, got, c.want)
		}
	}
}

func TestClassifyFarFromOrigin(t *testing.T) {
	// The banded predicates must behave identically when the whole
	// configuration is translated far away (relative tolerance).
	const off = 1e6
	h := ConvexHull([]Point{
		Pt(off, off), Pt(off+100, off), Pt(off+100, off+100), Pt(off, off+100),
	})
	if got := h.Classify(Pt(off+50, off+50)); got != HullInterior {
		t.Errorf("interior far from origin = %v", got)
	}
	if got := h.Classify(Pt(off+50, off)); got != HullEdge {
		t.Errorf("edge far from origin = %v", got)
	}
	if got := h.Classify(Pt(off+50, off-1)); got != HullOutside {
		t.Errorf("outside far from origin = %v", got)
	}
}

func TestVisibilityExactDegeneracies(t *testing.T) {
	// Four exactly collinear points: each sees only its neighbours.
	pts := []Point{Pt(0, 0), Pt(1, 1), Pt(2, 2), Pt(3, 3)}
	wants := [][]int{{1}, {0, 2}, {1, 3}, {2}}
	for i, want := range wants {
		got := VisibleSetFast(pts, i)
		if len(got) != len(want) {
			t.Fatalf("point %d sees %v, want %v", i, got, want)
		}
		for k := range want {
			if got[k] != want[k] {
				t.Fatalf("point %d sees %v, want %v", i, got, want)
			}
		}
	}
}

func TestVisibilityOppositeRays(t *testing.T) {
	// Points collinear through the observer on OPPOSITE sides do not
	// block each other (the observer is between them, not a third
	// robot).
	pts := []Point{Pt(0, 0), Pt(-5, 0), Pt(5, 0)}
	got := VisibleSetFast(pts, 0)
	if len(got) != 2 {
		t.Fatalf("center of a 3-line sees %v, want both neighbours", got)
	}
	// And the outer pair is blocked by the center.
	if Visible(pts, 1, 2) {
		t.Error("outer pair sees through the center")
	}
}

func TestVisibilityWrapAroundDirection(t *testing.T) {
	// Collinear points whose shared ray direction is exactly along the
	// atan2 discontinuity (θ = ±π): the run-merging in VisibleSetFast
	// must still hide the far one.
	pts := []Point{Pt(0, 0), Pt(-5, 0), Pt(-10, 0), Pt(3, 7)}
	got := VisibleSetFast(pts, 0)
	for _, j := range got {
		if j == 2 {
			t.Fatalf("far point on the -x ray visible: %v", got)
		}
	}
	if len(got) != 2 {
		t.Fatalf("sees %v, want the near -x point and the off-line point", got)
	}
}

func TestArcExtremeSagittas(t *testing.T) {
	a, b := Pt(0, 0), Pt(100, 0)
	// Very shallow: still strictly convex samples, still on circle.
	shallow := ArcThrough(a, b, 1e-6)
	mids := []Point{shallow.At(0.25), shallow.At(0.5), shallow.At(0.75)}
	for _, m := range mids {
		if m.Y <= 0 {
			t.Errorf("shallow arc sample %v not above chord", m)
		}
	}
	// Semicircle-ish: sagitta = half chord.
	deep := ArcThrough(a, b, 50)
	if got := deep.At(0.5); math.Abs(got.Y-50) > 1e-9 {
		t.Errorf("semicircle apex = %v", got)
	}
	// Beyond semicircle (major arc geometry still consistent).
	major := ArcThrough(a, b, 80)
	if got := major.Sagitta(); math.Abs(got-80) > 1e-6 {
		t.Errorf("major arc sagitta = %v", got)
	}
}

func TestOrientConsistencyUnderScale(t *testing.T) {
	rng := rand.New(rand.NewSource(55))
	for trial := 0; trial < 500; trial++ {
		a := randPt(rng)
		b := randPt(rng)
		c := randPt(rng)
		o := Orient(a, b, c)
		if o == Collinear {
			continue
		}
		for _, s := range []float64{1e-3, 1e3} {
			oa, ob, oc := a.Mul(s), b.Mul(s), c.Mul(s)
			if got := Orient(oa, ob, oc); got != o && got != Collinear {
				t.Fatalf("scaling by %v flipped orientation: %v -> %v", s, o, got)
			}
		}
	}
}

func TestHullOfManyCollinearPlusOne(t *testing.T) {
	// 50 collinear points plus one apex: the hull must have exactly 3
	// corners (two line extremes + apex), everything else edge points.
	var pts []Point
	for i := 0; i < 50; i++ {
		pts = append(pts, Pt(float64(i), 2*float64(i)))
	}
	pts = append(pts, Pt(25, 500))
	h := ConvexHull(pts)
	if len(h.Corners) != 3 {
		t.Fatalf("hull corners = %d, want 3", len(h.Corners))
	}
	edge := 0
	for _, p := range pts {
		if h.Classify(p) == HullEdge {
			edge++
		}
	}
	if edge != 48 {
		t.Errorf("edge points = %d, want 48", edge)
	}
}

func TestPathClearMarginBoundary(t *testing.T) {
	obstacles := []Point{Pt(5, 1)}
	// Obstacle exactly at the margin boundary: the < comparison means a
	// clearance of exactly the margin passes.
	if !PathClear(Pt(0, 0), Pt(10, 0), obstacles, 1) {
		t.Error("obstacle at exactly the margin rejected")
	}
	if PathClear(Pt(0, 0), Pt(10, 0), obstacles, 1.001) {
		t.Error("obstacle inside the margin accepted")
	}
}

func TestBlockedPairsCount(t *testing.T) {
	// k collinear points produce C(k,2) - (k-1) blocked pairs.
	var pts []Point
	for i := 0; i < 6; i++ {
		pts = append(pts, Pt(float64(i), 0))
	}
	want := 6*5/2 - 5
	if got := 6*5/2 - visiblePairs(t, pts); got != want {
		t.Errorf("blocked pairs = %d, want %d", got, want)
	}
}
