package geom

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

func benchPoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		pts[i] = Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

// benchCirclePoints returns n points at random angles on one circle.
func benchCirclePoints(n int, seed int64) []Point {
	rng := rand.New(rand.NewSource(seed))
	pts := make([]Point, n)
	for i := range pts {
		a := 2 * math.Pi * rng.Float64()
		pts[i] = Pt(500+400*math.Cos(a), 500+400*math.Sin(a))
	}
	return pts
}

// BenchmarkConvexHull covers uniform inputs and convex position (points
// on a circle, every point a corner: the late-phase LogVis local hull).
// n193 is the local-hull size at N = 192 (self plus 192 others).
func BenchmarkConvexHull(b *testing.B) {
	for _, n := range []int{64, 193, 512} {
		inputs := []struct {
			name string
			pts  []Point
		}{
			{sizeName(n), benchPoints(n, 1)},
			{sizeName(n) + "-circle", benchCirclePoints(n, 1)},
		}
		for _, in := range inputs {
			b.Run(in.name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					_ = ConvexHull(in.pts)
				}
			})
		}
	}
}

func BenchmarkVisibleSetFast(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			pts := benchPoints(n, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = VisibleSetFast(pts, i%n)
			}
		})
	}
}

func BenchmarkVisibleFromNaive(b *testing.B) {
	// The O(n²) reference, for the speedup comparison with the fast
	// variant above.
	pts := benchPoints(512, 2)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = VisibleFrom(pts, i%512)
	}
}

func BenchmarkCompleteVisibilityFast(b *testing.B) {
	for _, n := range []int{64, 512} {
		b.Run(sizeName(n), func(b *testing.B) {
			pts := benchPoints(n, 3)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = CompleteVisibilityFast(pts)
			}
		})
	}
}

func BenchmarkMinEnclosingCircle(b *testing.B) {
	pts := benchPoints(512, 4)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = MinEnclosingCircle(pts)
	}
}

func BenchmarkSegmentIntersect(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	segs := make([]Segment, 256)
	for i := range segs {
		segs[i] = Seg(Pt(rng.Float64()*100, rng.Float64()*100), Pt(rng.Float64()*100, rng.Float64()*100))
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s := segs[i%256]
		u := segs[(i*7+1)%256]
		_, _ = s.Intersect(u)
	}
}

// kernelBenchSizes is the N sweep of the visibility-kernel benchmarks;
// cmd/visbench mirrors it (visBenchSizes) when producing
// BENCH_visibility.json.
var kernelBenchSizes = []int{64, 256, 1024, 4096}

// BenchmarkVisibilityKernel measures a full batched pass — all n rows
// recomputed — after asserting, once per size, that every kernel row is
// identical to per-Look VisibleSetFast. Compare against
// BenchmarkVisibilityPerLook for the speedup; the zero-allocation
// steady state is additionally enforced by TestKernelZeroAllocSteadyState.
func BenchmarkVisibilityKernel(b *testing.B) {
	for _, n := range kernelBenchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			pts := benchPoints(n, 2)
			kern := NewKernel(0)
			defer kern.Close()
			snap := kern.NewSnapshot()
			snap.Reset(pts)
			snap.ComputeAll()
			for r := range pts {
				if !slices.Equal(snap.Row(r), VisibleSetFast(pts, r)) {
					b.Fatalf("kernel row %d diverges from VisibleSetFast at n=%d", r, n)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				snap.Reset(pts)
				snap.ComputeAll()
			}
		})
	}
}

// BenchmarkVisibilityPerLook is the pre-kernel baseline: n independent
// allocating VisibleSetFast calls, the cost the engine used to pay per
// cycle of Looks.
func BenchmarkVisibilityPerLook(b *testing.B) {
	for _, n := range kernelBenchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			pts := benchPoints(n, 2)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for r := 0; r < n; r++ {
					_ = VisibleSetFast(pts, r)
				}
			}
		})
	}
}

// BenchmarkSnapshotUpdate measures the incremental path: one robot
// oscillates between two far-apart positions and all rows are re-read,
// so most rows revalidate through the isolation check instead of
// recomputing.
func BenchmarkSnapshotUpdate(b *testing.B) {
	for _, n := range []int{64, 1024} {
		b.Run(sizeName(n), func(b *testing.B) {
			pts := benchPoints(n, 2)
			kern := NewKernel(0)
			defer kern.Close()
			snap := kern.NewSnapshot()
			snap.Reset(pts)
			snap.ComputeAll()
			home := pts[n/2]
			away := Pt(home.X+431.7, home.Y-219.3)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%2 == 0 {
					snap.Update(n/2, away)
				} else {
					snap.Update(n/2, home)
				}
				for r := 0; r < n; r++ {
					_ = snap.Row(r)
				}
			}
		})
	}
}

func sizeName(n int) string {
	return fmt.Sprintf("n%d", n)
}
