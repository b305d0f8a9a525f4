package geom_test

// The zero-allocation guard for the kernel's steady state: once the
// arenas and row buffers are warm, neither VisibleRow, the CV check
// (serial or fanned out) nor ClearAround may allocate. CI runs this as part of the ordinary test
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
	// 4 workers below and above the parallel threshold, the 1-worker
	// kernel the concurrent runtime uses, and a set small enough that
	// every sort takes the comparison path instead of the bucket sort.
	for _, c := range []struct{ workers, n int }{{4, 64}, {4, 256}, {1, 256}, {1, 32}} {
		n := c.n
		kern := geom.NewKernel(c.workers)
		defer kern.Close()
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
		}
		// Warm the arena and the buffer: a first pass over every row
		// grows both to their final size.
		var row []int
		for r := range pts {
			row = kern.VisibleRow(row, pts, r)
		}
		assertZeroAllocs(t, "Kernel.VisibleRow", func() {
			for r := range pts {
				row = kern.VisibleRow(row, pts, r)
			}
		})
		_ = kern.CompleteVisibilityFast(pts)
		assertZeroAllocs(t, "Kernel.CompleteVisibilityFast", func() {
			_ = kern.CompleteVisibilityFast(pts)
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
