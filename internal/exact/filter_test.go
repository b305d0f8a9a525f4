package exact

import (
	"math"
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

// checkOrientFilter asserts the filter's contract on one triple: never
// a certificate for non-finite input, never a certified zero, and every
// certified sign equal to OrientSign over big.Rat.
func checkOrientFilter(t *testing.T, a, b, c geom.Point) {
	t.Helper()
	sign, ok := orientFilter(a, b, c)
	if !a.IsFinite() || !b.IsFinite() || !c.IsFinite() {
		if ok {
			t.Fatalf("orientFilter(%v, %v, %v) certified %d for non-finite input", a, b, c, sign)
		}
		return
	}
	if !ok {
		return
	}
	if sign == 0 {
		t.Fatalf("orientFilter(%v, %v, %v) certified a zero sign", a, b, c)
	}
	if want := OrientSign(FromFloat(a), FromFloat(b), FromFloat(c)); sign != want {
		t.Fatalf("orientFilter(%v, %v, %v) = %d, exact OrientSign = %d", a, b, c, sign, want)
	}
}

// FuzzOrientFilter checks that every sign the float orientation filter
// certifies is the exact rational sign. The checked-in corpus
// (testdata/fuzz/FuzzOrientFilter) holds exactly collinear triples on
// integer and dyadic grids, 1-ulp perturbations of them, coordinates
// near 1e±150 and subnormal and signed-zero coordinates.
func FuzzOrientFilter(f *testing.F) {
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy float64) {
		checkOrientFilter(t, geom.Pt(ax, ay), geom.Pt(bx, by), geom.Pt(cx, cy))
	})
}

func TestOrientFilterCases(t *testing.T) {
	sub := math.SmallestNonzeroFloat64
	cases := []struct {
		name       string
		a, b, c    geom.Point
		wantOK     bool
		wantSign   int
		wantReason string
	}{
		{"left turn", geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), true, 1, ""},
		{"right turn", geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0), true, -1, ""},
		{"exactly collinear", geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(3, 3), false, 0, "zero is never certified"},
		{"dyadic collinear", geom.Pt(0.5, 0.25), geom.Pt(0.75, 0.375), geom.Pt(1.25, 0.625), false, 0, "zero is never certified"},
		{"one ulp off a line", geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(3, math.Nextafter(3, 4)), false, 0, "inside the error bound"},
		{"tiny but well-conditioned", geom.Pt(0, 0), geom.Pt(1e-150, 0), geom.Pt(0, 1e-150), false, 0, "below the underflow floor"},
		{"large and well-conditioned", geom.Pt(0, 0), geom.Pt(1e150, 0), geom.Pt(0, 1e150), true, 1, ""},
		{"overflowing products", geom.Pt(0, 0), geom.Pt(1e200, 0), geom.Pt(0, 1e200), false, 0, "detsum overflows"},
		{"subnormal", geom.Pt(0, 0), geom.Pt(sub, 0), geom.Pt(0, sub), false, 0, "below the underflow floor"},
		{"signed zeros", geom.Pt(math.Copysign(0, -1), 0), geom.Pt(1, 0), geom.Pt(0, 1), true, 1, ""},
		{"infinite", geom.Pt(0, 0), geom.Pt(math.Inf(1), 0), geom.Pt(0, 1), false, 0, "non-finite"},
		{"NaN", geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, math.NaN()), false, 0, "non-finite"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sign, ok := orientFilter(tc.a, tc.b, tc.c)
			if ok != tc.wantOK || sign != tc.wantSign {
				t.Fatalf("orientFilter = (%d, %v), want (%d, %v) %s", sign, ok, tc.wantSign, tc.wantOK, tc.wantReason)
			}
			checkOrientFilter(t, tc.a, tc.b, tc.c)
		})
	}
}

// TestOrientFilterNearCollinear hammers the filter where it matters:
// points placed on a line through two random points (rounded to float,
// so mostly just off it), then nudged by a few ulps, across magnitudes.
func TestOrientFilterNearCollinear(t *testing.T) {
	rng := rand.New(rand.NewSource(2017))
	certified := 0
	const trials = 20000
	for i := 0; i < trials; i++ {
		scale := math.Ldexp(1, rng.Intn(80)-40)
		a := geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
		b := geom.Pt(rng.NormFloat64()*scale, rng.NormFloat64()*scale)
		s := rng.Float64()*3 - 1
		c := geom.Pt(a.X+s*(b.X-a.X), a.Y+s*(b.Y-a.Y))
		for k := rng.Intn(4); k > 0; k-- {
			if rng.Intn(2) == 0 {
				c.X = math.Nextafter(c.X, math.Inf(1-2*rng.Intn(2)))
			} else {
				c.Y = math.Nextafter(c.Y, math.Inf(1-2*rng.Intn(2)))
			}
		}
		checkOrientFilter(t, a, b, c)
		if _, ok := orientFilter(a, b, c); ok {
			certified++
		}
	}
	// The filter must be useful, not just sound: even these triples,
	// which sit within a few ulps of a line, are certified about a
	// quarter of the time.
	if certified < trials/10 {
		t.Fatalf("filter certified only %d of %d near-collinear triples", certified, trials)
	}
}

// BenchmarkCompleteVisibilityHybrid certifies CV on 512 near-cocircular
// points at random angles (radius 3000, radial jitter 1e-9). Their
// close neighbors make the float angular scan propose about 3·10⁵
// candidate triples, the count a CircleVis N=512 terminal configuration
// produces, so the cost is dominated by candidate confirmation.
func BenchmarkCompleteVisibilityHybrid(b *testing.B) {
	const n = 512
	rng := rand.New(rand.NewSource(512))
	pts := make([]geom.Point, n)
	for i := range pts {
		th := 2 * math.Pi * rng.Float64()
		r := 3000 * (1 + 1e-9*rng.NormFloat64())
		pts[i] = geom.Pt(r*math.Cos(th), r*math.Sin(th))
	}
	if !CompleteVisibilityHybrid(pts) {
		b.Fatal("benchmark configuration is not in complete visibility")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cvSink = CompleteVisibilityHybrid(pts)
	}
}

// cvSink keeps the benchmarked call from being optimized away.
var cvSink bool
