package geom_test

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"luxvis/internal/geom"
)

// randomConfig draws a point set from one of three families: continuous
// uniform (rarely degenerate), small integer grid (rich in collinear
// triples, duplicates and branch-cut rays), and tight clusters at large
// offsets (exercises the adaptive tolerance and degenerate fallback).
func randomConfig(rng *rand.Rand, n int) []geom.Point {
	pts := make([]geom.Point, n)
	switch rng.Intn(3) {
	case 0:
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		}
	case 1:
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(17)-8), float64(rng.Intn(17)-8))
		}
	default:
		base := geom.Pt(rng.Float64()*2e4-1e4, rng.Float64()*2e4-1e4)
		for i := range pts {
			pts[i] = base.Add(geom.Pt(rng.Float64()*1e-2, rng.Float64()*1e-2))
		}
	}
	return pts
}

// checkRows builds every row of pts with kern.VisibleRow into the
// reused per-robot buffers rows (grown as needed) and asserts each
// equals a from-scratch VisibleSetFast.
func checkRows(t *testing.T, kern *geom.Kernel, rows [][]int, pts []geom.Point, ctxt string) [][]int {
	t.Helper()
	for len(rows) < len(pts) {
		rows = append(rows, nil)
	}
	for r := range pts {
		rows[r] = kern.VisibleRow(rows[r], pts, r)
		if want := geom.VisibleSetFast(pts, r); !slices.Equal(rows[r], want) {
			t.Fatalf("%s: VisibleRow(%d) = %v, VisibleSetFast = %v (pts=%v)", ctxt, r, rows[r], want, pts)
		}
	}
	return rows
}

// TestVisibleRowParity checks Kernel.VisibleRow against per-Look
// VisibleSetFast on a 4-worker kernel, with per-robot buffers reused
// across configurations of growing and shrinking size.
func TestVisibleRowParity(t *testing.T) {
	kern := geom.NewKernel(4)
	defer kern.Close()
	rng := rand.New(rand.NewSource(7))
	var rows [][]int
	for _, n := range []int{1, 2, 5, 40, 130, 200, 7} {
		for trial := 0; trial < 5; trial++ {
			rows = checkRows(t, kern, rows, randomConfig(rng, n), "VisibleRow")
		}
	}
}

// TestKernelCompleteVisibilityParity checks the 4-worker CV verdict
// against the 1-worker one on configurations both above and below the
// parallel threshold, with and without planted refutations.
func TestKernelCompleteVisibilityParity(t *testing.T) {
	kern := geom.NewKernel(4)
	defer kern.Close()
	serial := geom.NewKernel(1)
	defer serial.Close()
	rng := rand.New(rand.NewSource(43))
	plant := func(pts []geom.Point, kind int) {
		n := len(pts)
		switch kind {
		case 0: // collinear triple
			pts[n-1] = pts[0].Lerp(pts[1], 0.5)
		case 1: // duplicate
			pts[n-1] = pts[0]
		}
	}
	for trial := 0; trial < 30; trial++ {
		for _, n := range []int{10, 60, 200} {
			pts := randomConfig(rng, n)
			if k := rng.Intn(3); k < 2 {
				plant(pts, k)
			}
			got := kern.CompleteVisibilityFast(pts)
			want := serial.CompleteVisibilityFast(pts)
			if got != want {
				t.Fatalf("4-worker CompleteVisibilityFast = %v, 1-worker = %v (n=%d, pts=%v)",
					got, want, n, pts)
			}
		}
	}
}

// TestKernelCloseIdempotent makes sure Close is safe on never-started
// and already-closed kernels.
func TestKernelCloseIdempotent(t *testing.T) {
	k := geom.NewKernel(3)
	k.Close()
	k.Close()

	k2 := geom.NewKernel(3)
	pts := randomConfig(rand.New(rand.NewSource(61)), 200)
	k2.CompleteVisibilityFast(pts) // starts the pool
	k2.Close()
	k2.Close()
}

// TestClearAround: ClearAround clears a point of a uniform set, also one
// so close to a neighbour that its fold tolerance is undefined, and
// refuses a point coincident with another, one on the line through two
// others, and one that only the other two anchors find collinear.
func TestClearAround(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	base := make([]geom.Point, 40)
	for i := range base {
		base[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	a, b := base[1], base[2]
	d := b.Sub(a)
	nrm := geom.Pt(-d.Y, d.X).Mul(1 / d.Norm())
	l1 := math.Abs(d.X) + math.Abs(d.Y)
	cases := []struct {
		name  string
		at    geom.Point
		clear bool
	}{
		{"uniform", base[0], true},
		{"next to a neighbour", base[3].Add(geom.Pt(3e-3, 4e-3)), true},
		{"coincident", base[3].Add(geom.Pt(geom.Eps/2, 0)), false},
		{"on a line", a.Lerp(b, 0.25), false},
		// The doubled area 0.75·Eps·|b-a|₁ is inside the band Orient
		// allows anchored at a or b, outside the one anchored at the
		// midpoint (about half as wide).
		{"in the band of two anchors", a.Lerp(b, 0.5).Add(nrm.Mul(0.75 * geom.Eps * l1 / d.Norm())), false},
	}
	kern := geom.NewKernel(1)
	defer kern.Close()
	for _, c := range cases {
		pts := slices.Clone(base)
		pts[0] = c.at
		if got := kern.ClearAround(pts, 0); got != c.clear {
			t.Errorf("%s: ClearAround = %v, want %v", c.name, got, c.clear)
		}
		if c.clear && !kern.CompleteVisibilityFast(pts) {
			t.Errorf("%s: cleared, but CompleteVisibilityFast fails", c.name)
		}
	}
	if geom.AreCollinear(cases[4].at, a, b) {
		t.Error("the band case is collinear anchored at the moved point: it tests nothing")
	}
}
