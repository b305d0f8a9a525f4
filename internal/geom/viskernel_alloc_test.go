package geom_test

// The zero-allocation guard for the kernel's steady state: once the
// arenas and row buffers are warm, neither the batched pass (serial or
// parallel), the incremental Update/Row path, a one-off VisibleRow, the
// CV check nor ClearAround may allocate. CI runs this as part of the ordinary test
// job, so an allocation sneaking into the hot path fails the build, not
// just a benchmark report.

import (
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

func assertZeroAllocs(t *testing.T, what string, f func()) {
	t.Helper()
	if allocs := testing.AllocsPerRun(10, f); allocs != 0 {
		t.Fatalf("%s allocates %.1f times per run in steady state, want 0", what, allocs)
	}
}

func TestKernelZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(3))
	// 4 workers below and above the parallel threshold, and the 1-worker
	// kernel the concurrent runtime uses.
	for _, c := range []struct{ workers, n int }{{4, 64}, {4, 256}, {1, 256}} {
		n := c.n
		kern := geom.NewKernel(c.workers)
		defer kern.Close()
		snap := kern.NewSnapshot()
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		// Warm the arenas: first passes grow every buffer to its final
		// size.
		for warm := 0; warm < 3; warm++ {
			snap.Reset(pts)
			snap.ComputeAll()
		}
		assertZeroAllocs(t, "Reset+ComputeAll", func() {
			snap.Reset(pts)
			snap.ComputeAll()
		})
		target := geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		home := pts[n/2]
		snap.Update(n/2, target)
		snap.ComputeAll()
		assertZeroAllocs(t, "Update+Row", func() {
			snap.Update(n/2, home)
			for r := 0; r < n; r++ {
				_ = snap.Row(r)
			}
			home, target = target, home
		})
		assertZeroAllocs(t, "Kernel.CompleteVisibilityFast", func() {
			_ = kern.CompleteVisibilityFast(pts)
		})
		row := kern.VisibleRow(nil, pts, n/2)
		assertZeroAllocs(t, "Kernel.VisibleRow", func() {
			row = kern.VisibleRow(row, pts, n/2)
		})
		_ = kern.ClearAround(pts, n/2)
		assertZeroAllocs(t, "Kernel.ClearAround", func() {
			if !kern.ClearAround(pts, n/2) {
				t.Fatal("ClearAround of a uniform set fails")
			}
		})
	}
}

// TestConvexHullAllocs: with its pooled scratch warm, ConvexHull of a
// local-hull-sized input allocates only the returned corners, and
// ConvexHullInto with a warm corner buffer allocates nothing.
func TestConvexHullAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	rng := rand.New(rand.NewSource(4))
	pts := make([]geom.Point, 192)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	geom.ConvexHull(pts)
	if allocs := testing.AllocsPerRun(100, func() { geom.ConvexHull(pts) }); allocs > 1 {
		t.Fatalf("warm ConvexHull of %d points allocates %.1f times per call, want ≤ 1", len(pts), allocs)
	}
	dst := geom.ConvexHullInto(nil, pts).Corners
	assertZeroAllocs(t, "warm ConvexHullInto", func() { dst = geom.ConvexHullInto(dst, pts).Corners })
}
