package geom_test

import (
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
// parallel, against per-Look VisibleSetFast.
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
