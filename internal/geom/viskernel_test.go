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

// checkAllRows asserts every snapshot row equals a from-scratch
// VisibleSetFast on the current positions.
func checkAllRows(t *testing.T, snap *geom.Snapshot, cur []geom.Point, ctxt string) {
	t.Helper()
	for r := range cur {
		got := snap.Row(r)
		want := geom.VisibleSetFast(cur, r)
		if !slices.Equal(got, want) {
			t.Fatalf("%s: Snapshot.Row(%d) = %v, from-scratch VisibleSetFast = %v (pts=%v)",
				ctxt, r, got, want, cur)
		}
	}
}

// TestSnapshotComputeAllParity checks the batched path, serial and
// parallel, and Kernel.VisibleRow against per-Look VisibleSetFast.
func TestSnapshotComputeAllParity(t *testing.T) {
	kern := geom.NewKernel(4)
	defer kern.Close()
	snap := kern.NewSnapshot()
	rng := rand.New(rand.NewSource(7))
	for _, n := range []int{1, 2, 5, 40, 130, 200} { // 130+ takes the parallel path
		for trial := 0; trial < 5; trial++ {
			pts := randomConfig(rng, n)
			snap.Reset(pts)
			snap.ComputeAll()
			checkAllRows(t, snap, pts, "after ComputeAll")
			var row []int
			for r := range pts {
				row = kern.VisibleRow(row, pts, r)
				if want := geom.VisibleSetFast(pts, r); !slices.Equal(row, want) {
					t.Fatalf("Kernel.VisibleRow(%d) = %v, VisibleSetFast = %v (pts=%v)", r, row, want, pts)
				}
			}
		}
	}
}

// TestSnapshotUpdateParity is the incremental-path property test: across
// 1000 randomized configurations, after a random single-robot move every
// row of the snapshot must agree index-for-index with a from-scratch
// VisibleSetFast of the moved configuration. Moves mix far jumps, tiny
// nudges (angularly non-isolated, so rows must correctly refuse reuse)
// and adversarial placements exactly on the segment between two other
// robots.
func TestSnapshotUpdateParity(t *testing.T) {
	kern := geom.NewKernel(4)
	defer kern.Close()
	snap := kern.NewSnapshot()
	rng := rand.New(rand.NewSource(11))
	for cfg := 0; cfg < 1000; cfg++ {
		n := 3 + rng.Intn(12)
		pts := randomConfig(rng, n)
		snap.Reset(pts)
		snap.ComputeAll()

		m := rng.Intn(n)
		var np geom.Point
		switch rng.Intn(3) {
		case 0: // far jump
			np = geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		case 1: // tiny nudge
			np = pts[m].Add(geom.Pt(rng.Float64()*1e-3, rng.Float64()*1e-3))
		default: // land exactly on a line through two others
			a, b := rng.Intn(n), rng.Intn(n)
			np = pts[a].Lerp(pts[b], rng.Float64())
		}
		snap.Update(m, np)
		cur := slices.Clone(pts)
		cur[m] = np
		checkAllRows(t, snap, cur, "after Update")
	}
}

// TestSnapshotUpdateSequence drives one snapshot through a long stream
// of moves with interleaved partial reads, so rows are revalidated
// against multi-move windows and across log-overflow barriers.
func TestSnapshotUpdateSequence(t *testing.T) {
	kern := geom.NewKernel(4)
	defer kern.Close()
	snap := kern.NewSnapshot()
	rng := rand.New(rand.NewSource(23))
	n := 40
	cur := randomConfig(rng, n)
	snap.Reset(cur)
	for step := 0; step < 400; step++ {
		m := rng.Intn(n)
		var np geom.Point
		if rng.Intn(2) == 0 {
			np = geom.Pt(rng.Float64()*100-50, rng.Float64()*100-50)
		} else {
			np = cur[m].Add(geom.Pt(rng.Float64()*0.1-0.05, rng.Float64()*0.1-0.05))
		}
		snap.Update(m, np)
		cur[m] = np
		switch step % 7 {
		case 0:
			snap.ComputeAll()
			checkAllRows(t, snap, cur, "sequence ComputeAll")
		case 3:
			// Partial read: only a few rows, leaving the rest stale so
			// later revalidations see longer move windows.
			for k := 0; k < 5; k++ {
				r := rng.Intn(n)
				got := snap.Row(r)
				want := geom.VisibleSetFast(cur, r)
				if !slices.Equal(got, want) {
					t.Fatalf("step %d: Row(%d) = %v, want %v", step, r, got, want)
				}
			}
		}
	}
	snap.ComputeAll()
	checkAllRows(t, snap, cur, "sequence end")
	st := snap.Stats()
	if st.RowsComputed == 0 {
		t.Fatalf("stats recorded no computed rows over the sequence: %+v", st)
	}
}

// TestSnapshotResetReuse checks that Reset fully invalidates state from
// a previous configuration, including a size change.
func TestSnapshotResetReuse(t *testing.T) {
	kern := geom.NewKernel(2)
	defer kern.Close()
	snap := kern.NewSnapshot()
	rng := rand.New(rand.NewSource(31))
	sizes := []int{20, 7, 33, 20, 1}
	for _, n := range sizes {
		pts := randomConfig(rng, n)
		snap.Reset(pts)
		if snap.Len() != n {
			t.Fatalf("Len() = %d after Reset with %d points", snap.Len(), n)
		}
		snap.ComputeAll()
		checkAllRows(t, snap, pts, "after re-Reset")
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
	snap := k2.NewSnapshot()
	pts := randomConfig(rand.New(rand.NewSource(61)), 200)
	snap.Reset(pts)
	snap.ComputeAll() // starts the pool
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
