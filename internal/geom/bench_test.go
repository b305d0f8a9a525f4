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
			kern := NewKernel(1)
			defer kern.Close()
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = kern.CompleteVisibilityFast(pts)
			}
		})
	}
}

// BenchmarkClearAround measures the per-move check of a warm 1-worker
// kernel, cycling the moved point over the set, on uniform and circle
// points (every point a hull corner: the late CircleVis phase). A warm
// call must not allocate; TestKernelZeroAllocSteadyState guards the
// same at the sizes the engine workloads run. On the 2048-point circle,
// 26 points have a neighbour so close that their fold tolerance is
// undefined, and checking one of them confirms every pair: those
// quadratic checks set that cell's mean.
func BenchmarkClearAround(b *testing.B) {
	for _, n := range []int{64, 512, 2048} {
		inputs := []struct {
			name string
			pts  []Point
		}{
			{sizeName(n), benchPoints(n, 6)},
			{sizeName(n) + "-circle", benchCirclePoints(n, 6)},
		}
		for _, in := range inputs {
			b.Run(in.name, func(b *testing.B) {
				kern := NewKernel(1)
				defer kern.Close()
				m := 0
				step := func() {
					if !kern.ClearAround(in.pts, m) {
						b.Fatalf("ClearAround(%d) fails on %s", m, in.name)
					}
					m = (m + 1) % n
				}
				step()
				if allocs := testing.AllocsPerRun(10, step); allocs != 0 {
					b.Fatalf("warm ClearAround allocates %.1f times per call, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					step()
				}
			})
		}
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

// BenchmarkVisibleRow measures a full pass — all n rows built with
// Kernel.VisibleRow into one reused buffer — after asserting, once per
// size, that every row is identical to per-Look VisibleSetFast. Compare
// against BenchmarkVisibilityPerLook for the speedup; the zero-allocation
// steady state is additionally enforced by TestKernelZeroAllocSteadyState.
func BenchmarkVisibleRow(b *testing.B) {
	for _, n := range kernelBenchSizes {
		b.Run(sizeName(n), func(b *testing.B) {
			pts := benchPoints(n, 2)
			kern := NewKernel(1)
			defer kern.Close()
			var row []int
			for r := range pts {
				row = kern.VisibleRow(row, pts, r)
				if !slices.Equal(row, VisibleSetFast(pts, r)) {
					b.Fatalf("kernel row %d diverges from VisibleSetFast at n=%d", r, n)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for r := range pts {
					row = kern.VisibleRow(row, pts, r)
				}
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

func sizeName(n int) string {
	return fmt.Sprintf("n%d", n)
}
