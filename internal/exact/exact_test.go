package exact

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

func fp(x, y float64) Point { return FromFloat(geom.Pt(x, y)) }

func TestOrientSign(t *testing.T) {
	cases := []struct {
		a, b, c Point
		want    int
	}{
		{fp(0, 0), fp(1, 0), fp(0, 1), 1},
		{fp(0, 0), fp(1, 0), fp(0, -1), -1},
		{fp(0, 0), fp(1, 0), fp(2, 0), 0},
		// A triple that float predicates would call collinear but is
		// exactly not: the offset is below geom.Eps but representable.
		{fp(0, 0), fp(1, 0), fp(0.5, 1e-12), 1},
	}
	for _, c := range cases {
		if got := OrientSign(c.a, c.b, c.c); got != c.want {
			t.Errorf("OrientSign = %d, want %d", got, c.want)
		}
	}
}

func TestStrictlyBetweenExact(t *testing.T) {
	a, b := fp(0, 0), fp(10, 0)
	if !StrictlyBetween(a, b, fp(5, 0)) {
		t.Error("midpoint rejected")
	}
	if StrictlyBetween(a, b, fp(0, 0)) || StrictlyBetween(a, b, fp(10, 0)) {
		t.Error("endpoint accepted")
	}
	if StrictlyBetween(a, b, fp(5, 1e-15)) {
		t.Error("off-line point accepted (exactly off by 1e-15)")
	}
	// Vertical.
	va, vb := fp(0, 0), fp(0, 10)
	if !StrictlyBetween(va, vb, fp(0, 3)) {
		t.Error("vertical between rejected")
	}
}

func TestVisibleAndCV(t *testing.T) {
	line := []Point{fp(0, 0), fp(5, 0), fp(10, 0)}
	if Visible(line, 0, 2) {
		t.Error("blocked pair visible")
	}
	if !Visible(line, 0, 1) {
		t.Error("adjacent pair not visible")
	}
	if CompleteVisibility(line) {
		t.Error("line reported CV")
	}
	tri := []Point{fp(0, 0), fp(4, 0), fp(2, 3)}
	if !CompleteVisibility(tri) {
		t.Error("triangle not CV")
	}
	dup := []Point{fp(1, 1), fp(1, 1)}
	if CompleteVisibility(dup) {
		t.Error("duplicates reported CV")
	}
}

func TestSegmentsProperlyCross(t *testing.T) {
	if !SegmentsProperlyCross(fp(0, 0), fp(10, 10), fp(0, 10), fp(10, 0)) {
		t.Error("X crossing not detected")
	}
	if SegmentsProperlyCross(fp(0, 0), fp(5, 5), fp(5, 5), fp(9, 0)) {
		t.Error("shared endpoint counted as proper crossing")
	}
	if SegmentsProperlyCross(fp(0, 0), fp(10, 0), fp(0, 1), fp(10, 1)) {
		t.Error("parallel segments counted as crossing")
	}
	if SegmentsProperlyCross(fp(0, 0), fp(10, 0), fp(2, 0), fp(8, 0)) {
		t.Error("collinear overlap counted as proper crossing")
	}
}

func TestSegmentsOverlap(t *testing.T) {
	if !SegmentsOverlap(fp(0, 0), fp(10, 0), fp(5, 0), fp(15, 0)) {
		t.Error("overlap not detected")
	}
	if SegmentsOverlap(fp(0, 0), fp(5, 0), fp(5, 0), fp(9, 0)) {
		t.Error("single shared point counted as overlap")
	}
	if SegmentsOverlap(fp(0, 0), fp(10, 0), fp(0, 1), fp(10, 1)) {
		t.Error("parallel non-collinear counted as overlap")
	}
	if !SegmentsOverlap(fp(0, 0), fp(0, 10), fp(0, 5), fp(0, 15)) {
		t.Error("vertical overlap not detected")
	}
}

func TestStrictlyConvexPositionExact(t *testing.T) {
	tri := []Point{fp(0, 0), fp(4, 0), fp(2, 3)}
	if !StrictlyConvexPosition(tri) {
		t.Error("triangle rejected")
	}
	withInterior := []Point{fp(0, 0), fp(4, 0), fp(2, 3), fp(2, 1)}
	if StrictlyConvexPosition(withInterior) {
		t.Error("interior point accepted")
	}
	collinear := []Point{fp(0, 0), fp(2, 0), fp(4, 0)}
	if StrictlyConvexPosition(collinear) {
		t.Error("collinear points accepted")
	}
}

// Hybrid checker agrees with the full exact predicate on random and
// degenerate configurations.
func TestHybridAgreesWithExact(t *testing.T) {
	rng := rand.New(rand.NewSource(20))
	for trial := 0; trial < 200; trial++ {
		n := 3 + rng.Intn(12)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		switch trial % 3 {
		case 1: // exact collinear triple
			pts[2] = pts[0].Mid(pts[1])
		case 2: // near-collinear but exactly off
			m := pts[0].Mid(pts[1])
			pts[2] = geom.Pt(m.X, m.Y+1e-11)
		}
		full := CompleteVisibility(FromFloats(pts))
		hybrid := CompleteVisibilityHybrid(pts)
		if full != hybrid {
			t.Fatalf("trial %d: full=%v hybrid=%v for %v", trial, full, hybrid, pts)
		}
	}
	for _, c := range degenerateConfigs() {
		full := CompleteVisibility(FromFloats(c.pts))
		if c.blocked && full {
			t.Fatalf("%s: oracle reports CV for a configuration built to fail it", c.name)
		}
		if hybrid := CompleteVisibilityHybrid(c.pts); hybrid != full {
			t.Fatalf("%s: full=%v hybrid=%v for %v", c.name, full, hybrid, c.pts)
		}
	}
}

// degenerateConfig is a configuration where the float candidate scan
// proposes many triples (points on a circle) or where exactness is the
// whole question (an exactly collinear chord triple, signed zeros).
type degenerateConfig struct {
	name    string
	pts     []geom.Point
	blocked bool // built to fail CV: a collinear triple or a duplicate
}

// cocircular returns n points on the circle of radius r around c at
// random angles. No three points of a circle are collinear, but after
// rounding the float angular scan proposes candidates among them.
func cocircular(rng *rand.Rand, n int, c geom.Point, r float64) []geom.Point {
	pts := make([]geom.Point, n)
	for i := range pts {
		th := rng.Float64() * 2 * math.Pi
		pts[i] = geom.Pt(c.X+r*math.Cos(th), c.Y+r*math.Sin(th))
	}
	return pts
}

// withChordTriple rounds two points of pts to a dyadic grid and appends
// their midpoint, which is then exact: a point exactly on the chord.
// With offULP the midpoint is nudged one ulp off the chord instead.
func withChordTriple(rng *rand.Rand, pts []geom.Point, offULP bool) []geom.Point {
	q := func(v float64) float64 { return math.Round(v*0x1p20) / 0x1p20 }
	i := rng.Intn(len(pts))
	j := (i + 1 + rng.Intn(len(pts)-1)) % len(pts)
	pts[i] = geom.Pt(q(pts[i].X), q(pts[i].Y))
	pts[j] = geom.Pt(q(pts[j].X), q(pts[j].Y))
	m := geom.Pt((pts[i].X+pts[j].X)/2, (pts[i].Y+pts[j].Y)/2)
	if offULP {
		m.Y = math.Nextafter(m.Y, math.Inf(1))
	}
	return append(pts, m)
}

// degenerateConfigs is the shared differential corpus of the filtered
// predicates: cocircular sets (n ≤ 64, so the O(n³) oracles stay
// cheap), the same with a chord triple injected exactly or one ulp off,
// and a −0/+0 duplicate.
func degenerateConfigs() []degenerateConfig {
	rng := rand.New(rand.NewSource(1497))
	var out []degenerateConfig
	for _, n := range []int{8, 16, 32, 48} {
		c, r := geom.Pt(100.25, -3.5), 37.0
		out = append(out,
			degenerateConfig{name: fmt.Sprintf("cocircular n=%d", n), pts: cocircular(rng, n, c, r)},
			degenerateConfig{name: fmt.Sprintf("cocircular n=%d + chord triple", n),
				pts: withChordTriple(rng, cocircular(rng, n-1, c, r), false), blocked: true},
			degenerateConfig{name: fmt.Sprintf("cocircular n=%d + chord triple one ulp off", n),
				pts: withChordTriple(rng, cocircular(rng, n-1, c, r), true)},
		)
	}
	negZero := math.Copysign(0, -1)
	out = append(out,
		degenerateConfig{name: "-0/+0 duplicate",
			pts: []geom.Point{geom.Pt(negZero, 5), geom.Pt(3, 4), geom.Pt(0, 5), geom.Pt(-4, -3)}, blocked: true},
		degenerateConfig{name: "cocircular + -0/+0 duplicate",
			pts: append(cocircular(rng, 30, geom.Pt(0, 0), 5), geom.Pt(0, negZero), geom.Pt(negZero, 0)), blocked: true},
	)
	return out
}

// The float predicate band: exact arithmetic distinguishes points the
// float kernel deliberately merges.
func TestExactResolvesBelowFloatEps(t *testing.T) {
	a := geom.Pt(0, 0)
	b := geom.Pt(1, 0)
	m := geom.Pt(0.5, 1e-12) // inside geom.Eps band, exactly off the line
	if !geom.AreCollinear(a, b, m) {
		t.Skip("float kernel resolves this offset; widen the test")
	}
	if Collinear(FromFloat(a), FromFloat(b), FromFloat(m)) {
		t.Error("exact kernel merged a distinct point")
	}
}

func TestBlockedPairExact(t *testing.T) {
	pts := FromFloats([]geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0)})
	if Visible(pts, 0, 2) {
		t.Error("blocked pair not detected")
	}
	if !Visible(pts, 0, 1) {
		t.Error("visible pair reported blocked")
	}
}

func TestFromFloatPanicsOnNonFinite(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("no panic on NaN")
		}
	}()
	FromFloat(geom.Point{X: 0, Y: nan()})
}

func nan() float64 { f := 0.0; return f / f }
