package geom

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestOrient(t *testing.T) {
	cases := []struct {
		a, b, c Point
		want    Orientation
	}{
		{Pt(0, 0), Pt(1, 0), Pt(0, 1), CCW},
		{Pt(0, 0), Pt(1, 0), Pt(0, -1), CW},
		{Pt(0, 0), Pt(1, 0), Pt(2, 0), Collinear},
		{Pt(0, 0), Pt(1, 1), Pt(2, 2), Collinear},
		{Pt(0, 0), Pt(1, 1), Pt(2, 2.0001), CCW},
		{Pt(0, 0), Pt(1, 1), Pt(2, 1.9999), CW},
	}
	for _, c := range cases {
		if got := Orient(c.a, c.b, c.c); got != c.want {
			t.Errorf("Orient(%v,%v,%v) = %v, want %v", c.a, c.b, c.c, got, c.want)
		}
	}
}

// Property: swapping two arguments flips the orientation.
func TestOrientAntisymmetry(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a := Pt(rng.Float64()*1000, rng.Float64()*1000)
		b := Pt(rng.Float64()*1000, rng.Float64()*1000)
		c := Pt(rng.Float64()*1000, rng.Float64()*1000)
		o1, o2 := Orient(a, b, c), Orient(b, a, c)
		if o1 == Collinear || o2 == Collinear {
			continue // banded predicate may disagree near the line
		}
		if o1 != -o2 {
			t.Fatalf("Orient not antisymmetric for %v %v %v: %v vs %v", a, b, c, o1, o2)
		}
	}
}

// Property: orientation is invariant under translation.
func TestOrientTranslationInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		c := Pt(rng.Float64()*100, rng.Float64()*100)
		d := Pt(rng.Float64()*10, rng.Float64()*10)
		o1 := Orient(a, b, c)
		o2 := Orient(a.Add(d), b.Add(d), c.Add(d))
		if o1 != Collinear && o2 != Collinear && o1 != o2 {
			t.Fatalf("translation changed orientation: %v -> %v", o1, o2)
		}
	}
}

func TestStrictlyBetween(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	cases := []struct {
		m    Point
		want bool
	}{
		{Pt(5, 0), true},
		{Pt(0, 0), false},  // endpoint
		{Pt(10, 0), false}, // endpoint
		{Pt(11, 0), false}, // beyond
		{Pt(-1, 0), false}, // before
		{Pt(5, 1), false},  // off the line
		{Pt(0.001, 0), true},
	}
	for _, c := range cases {
		if got := StrictlyBetween(a, b, c.m); got != c.want {
			t.Errorf("StrictlyBetween(%v,%v,%v) = %v, want %v", a, b, c.m, got, c.want)
		}
	}
	// Vertical segment exercises the dominant-axis switch.
	va, vb := Pt(0, 0), Pt(0, 10)
	if !StrictlyBetween(va, vb, Pt(0, 5)) {
		t.Error("vertical between failed")
	}
	if StrictlyBetween(va, vb, Pt(0, 10.5)) {
		t.Error("vertical beyond accepted")
	}
}

func TestOnSegment(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 10)
	if !OnSegment(a, b, a) || !OnSegment(a, b, b) {
		t.Error("endpoints must be on the closed segment")
	}
	if !OnSegment(a, b, Pt(5, 5)) {
		t.Error("midpoint must be on the segment")
	}
	if OnSegment(a, b, Pt(11, 11)) {
		t.Error("point beyond endpoint accepted")
	}
	if OnSegment(a, b, Pt(5, 6)) {
		t.Error("off-line point accepted")
	}
}

func TestAllCollinear(t *testing.T) {
	if !AllCollinear(nil) || !AllCollinear([]Point{Pt(1, 1)}) || !AllCollinear([]Point{Pt(1, 1), Pt(2, 2)}) {
		t.Error("small sets must be trivially collinear")
	}
	line := []Point{Pt(0, 0), Pt(1, 0.5), Pt(2, 1), Pt(4, 2), Pt(-2, -1)}
	if !AllCollinear(line) {
		t.Error("collinear set rejected")
	}
	bent := append(append([]Point{}, line...), Pt(1, 2))
	if AllCollinear(bent) {
		t.Error("non-collinear set accepted")
	}
}

// TestAllCollinearOrderFree: points near a line, inside and around
// Orient's tolerance band, get one answer in every order, and both
// answers occur.
func TestAllCollinearOrderFree(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	var answers [2]int
	for trial := 0; trial < 2000; trial++ {
		n := 3 + rng.Intn(8)
		pts := make([]Point, n)
		for i := range pts {
			x := rng.Float64() * 100
			pts[i] = Pt(x, 0.5*x+(rng.Float64()-0.5)*Eps*math.Ldexp(1, rng.Intn(12)))
		}
		want := AllCollinear(pts)
		if want {
			answers[1]++
		} else {
			answers[0]++
		}
		for k := 0; k < 6; k++ {
			rng.Shuffle(n, func(i, j int) { pts[i], pts[j] = pts[j], pts[i] })
			if got := AllCollinear(pts); got != want {
				t.Fatalf("AllCollinear(%v) = %v, another order gives %v", pts, got, want)
			}
		}
	}
	if answers[0] == 0 || answers[1] == 0 {
		t.Fatalf("answers false/true %v: the band was missed", answers)
	}
}

func TestLineExtremes(t *testing.T) {
	pts := []Point{Pt(3, 3), Pt(1, 1), Pt(5, 5), Pt(2, 2)}
	lo, hi := LineExtremes(pts)
	if !pts[lo].Eq(Pt(1, 1)) || !pts[hi].Eq(Pt(5, 5)) {
		t.Errorf("LineExtremes = %v %v", pts[lo], pts[hi])
	}
	// Vertical line exercises the axis switch.
	vpts := []Point{Pt(0, 3), Pt(0, -2), Pt(0, 7)}
	lo, hi = LineExtremes(vpts)
	if !vpts[lo].Eq(Pt(0, -2)) || !vpts[hi].Eq(Pt(0, 7)) {
		t.Errorf("vertical LineExtremes = %v %v", vpts[lo], vpts[hi])
	}
}

func TestProjectOntoLine(t *testing.T) {
	a, b := Pt(0, 0), Pt(10, 0)
	proj, tt := ProjectOntoLine(a, b, Pt(3, 7))
	if !proj.Eq(Pt(3, 0)) || !almostEq(tt, 0.3) {
		t.Errorf("projection = %v t=%v", proj, tt)
	}
	proj, tt = ProjectOntoLine(a, b, Pt(-5, 2))
	if !proj.Eq(Pt(-5, 0)) || !almostEq(tt, -0.5) {
		t.Errorf("projection before segment = %v t=%v", proj, tt)
	}
}

func TestDistToLine(t *testing.T) {
	if got := DistToLine(Pt(0, 0), Pt(10, 0), Pt(5, 3)); !almostEq(got, 3) {
		t.Errorf("DistToLine = %v", got)
	}
}

// Property: the projection foot is the closest line point.
func TestProjectionIsClosest(t *testing.T) {
	f := func(px, py, tshift float64) bool {
		if math.IsNaN(px+py+tshift) || math.Abs(px) > 1e6 || math.Abs(py) > 1e6 || math.Abs(tshift) > 1e3 {
			return true
		}
		a, b := Pt(-3, 1), Pt(7, 4)
		p := Pt(px, py)
		proj, tt := ProjectOntoLine(a, b, p)
		other := a.Add(b.Sub(a).Mul(tt + tshift))
		return p.Dist(proj) <= p.Dist(other)+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: StrictlyBetween implies the distances add up.
func TestBetweenDistancesAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		a := Pt(rng.Float64()*100, rng.Float64()*100)
		b := Pt(rng.Float64()*100, rng.Float64()*100)
		tt := rng.Float64()
		m := a.Lerp(b, tt)
		if StrictlyBetween(a, b, m) {
			if !almostEq(a.Dist(m)+m.Dist(b), a.Dist(b)) {
				t.Fatalf("distances do not add for %v between %v-%v", m, a, b)
			}
		}
	}
}
