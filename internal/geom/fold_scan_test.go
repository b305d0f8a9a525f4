package geom

// Differential tests of the folded-direction scan behind ClearAround,
// the CV scan and CollinearCandidates: collinearObserver, whose
// directions raySort orders, must emit exactly the pairs of a scan that
// orders them with a plain comparison sort (foldScanRef), for every
// observer.

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refDir is one folded direction of the reference scan.
type refDir struct {
	phi float64
	idx int
}

// foldScanRef is the reference folded-direction scan: the same fold,
// tolerance and circular run clustering as collinearObserver, with the
// directions ordered by a comparison sort on phi alone (ties in any
// order).
func foldScanRef(pts []Point, k int, floorTol float64, emit func(a, b int, confirmable bool) bool) bool {
	var dirs []refDir
	minD2 := math.Inf(1)
	maxL1 := 0.0
	for j := range pts {
		if j == k {
			continue
		}
		d := pts[j].Sub(pts[k])
		d2 := d.Norm2()
		if d2 == 0 {
			if emit(j, j, false) {
				return true
			}
			continue
		}
		phi := pseudoAngle(d)
		if phi < 0 {
			phi += 2
		}
		if phi >= 2 {
			phi -= 2
		}
		dirs = append(dirs, refDir{phi: phi, idx: j})
		if d2 < minD2 {
			minD2 = d2
		}
		if l1 := abs(d.X) + abs(d.Y); l1 > maxL1 {
			maxL1 = l1
		}
	}
	if len(dirs) < 2 {
		return false
	}
	// allPairs emits every pair of the m directions from dirs[lo]
	// on, wrapping around the end.
	allPairs := func(lo, m int) bool {
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				if emit(dirs[(lo+a)%len(dirs)].idx, dirs[(lo+b)%len(dirs)].idx, true) {
					return true
				}
			}
		}
		return false
	}
	tol, ok := foldTol(minD2, maxL1)
	if !ok {
		return allPairs(0, len(dirs))
	}
	if tol < floorTol {
		tol = floorTol
	}
	slices.SortFunc(dirs, func(a, b refDir) int {
		switch {
		case a.phi < b.phi:
			return -1
		case a.phi > b.phi:
			return 1
		default:
			return 0
		}
	})
	m := len(dirs)
	gapAfter := func(j int) float64 {
		if j == m-1 {
			return dirs[0].phi + 2 - dirs[m-1].phi
		}
		return dirs[j+1].phi - dirs[j].phi
	}
	start := -1
	for j := 0; j < m; j++ {
		if gapAfter(j) >= tol {
			start = (j + 1) % m
			break
		}
	}
	if start < 0 {
		return allPairs(0, m)
	}
	for consumed, lo := 0, start; consumed < m; {
		runLen := 1
		for consumed+runLen < m && gapAfter((lo+runLen-1)%m) < tol {
			runLen++
		}
		if allPairs(lo, runLen) {
			return true
		}
		consumed += runLen
		lo = (lo + runLen) % m
	}
	return false
}

// foldPair is one emitted pair, normalized so that a <= b.
type foldPair struct {
	a, b        int
	confirmable bool
}

func cmpFoldPair(x, y foldPair) int {
	switch {
	case x.a != y.a:
		return x.a - y.a
	case x.b != y.b:
		return x.b - y.b
	case x.confirmable == y.confirmable:
		return 0
	case y.confirmable:
		return -1
	}
	return 1
}

// pairCollector records the pairs one observer's scan emits: all of
// them while they number at most keepPairs, and for every count an
// order-free fingerprint (the sums of the pair codes and of their
// squares, wrapping),
// so that single runs of hundreds of collinear points (130k pairs an
// observer) are compared without sorting them.
type pairCollector struct {
	pairs      []foldPair
	count      int
	sum1, sum2 uint64
}

const keepPairs = 4096

func (c *pairCollector) reset() {
	c.pairs, c.count, c.sum1, c.sum2 = c.pairs[:0], 0, 0, 0
}

func (c *pairCollector) emit(a, b int, confirmable bool) bool {
	if a > b {
		a, b = b, a
	}
	if c.count < keepPairs {
		c.pairs = append(c.pairs, foldPair{a, b, confirmable})
	}
	c.count++
	h := uint64(a)<<33 | uint64(b)<<1
	if confirmable {
		h |= 1
	}
	c.sum1 += h
	c.sum2 += h * h
	return false
}

// sameAs reports whether c and ref recorded the same pair set, and
// otherwise a description of the first difference.
func (c *pairCollector) sameAs(ref *pairCollector) (bool, string) {
	if c.count != ref.count {
		return false, fmt.Sprintf("%d pairs, reference %d", c.count, ref.count)
	}
	if c.count > keepPairs {
		if c.sum1 != ref.sum1 || c.sum2 != ref.sum2 {
			return false, fmt.Sprintf("%d pairs each, fingerprints differ", c.count)
		}
		return true, ""
	}
	slices.SortFunc(c.pairs, cmpFoldPair)
	slices.SortFunc(ref.pairs, cmpFoldPair)
	for i := range c.pairs {
		if c.pairs[i] != ref.pairs[i] {
			return false, fmt.Sprintf("pair %d of %d: %v, reference %v", i, c.count, c.pairs[i], ref.pairs[i])
		}
	}
	return true, ""
}

// foldFamily builds one n-point test input at the given scale.
func foldFamily(name string, n int, scale float64, rng *rand.Rand) []Point {
	pts := make([]Point, n)
	switch name {
	case "uniform":
		for i := range pts {
			pts[i] = Pt(rng.Float64(), rng.Float64())
		}
	case "line":
		// Every point on one slanted line: each observer's directions
		// fold onto one angle and chain into a single run.
		for i := range pts {
			t := float64(i) - float64(n)/2
			pts[i] = Pt(t, 0.5*t)
		}
	case "grid":
		side := int(math.Ceil(math.Sqrt(float64(n))))
		for i := range pts {
			pts[i] = Pt(float64(i%side), float64(i/side))
		}
	case "spokes":
		// A center and seven spokes: from the center, opposite spokes
		// fold into one direction.
		pts[0] = Pt(0, 0)
		for i := 1; i < n; i++ {
			a := float64((i-1)%7) * 2 * math.Pi / 7
			r := float64((i-1)/7 + 1)
			pts[i] = Pt(r*math.Cos(a), r*math.Sin(a))
		}
	case "clustered":
		// Four tight far-apart clusters: from any observer each other
		// cluster fills one bucket, so at n = 512 the bucket sort falls
		// back to the comparison sort.
		for i := range pts {
			c := float64(i % 4)
			pts[i] = Pt(100*math.Cos(c)+1e-3*rng.Float64(), 100*math.Sin(c)+1e-3*rng.Float64())
		}
	case "axis":
		// Points on the x-axis on both sides of the origin, some with
		// -0 y coordinates, and points just above the negative and
		// just below the positive half-axis: folded angles of 0 meet
		// folded angles just under 2 across the fold.
		negZero := math.Copysign(0, -1)
		for i := range pts {
			x := float64(i/4 + 1)
			switch i % 4 {
			case 0:
				pts[i] = Pt(x, 0)
			case 1:
				pts[i] = Pt(-x, negZero)
			case 2:
				pts[i] = Pt(-x, x*1e-9)
			default:
				pts[i] = Pt(x+0.5, -x*1e-9)
			}
		}
		pts[n-1] = Pt(0, negZero)
	default:
		panic("unknown family " + name)
	}
	for i := range pts {
		pts[i] = pts[i].Mul(scale)
	}
	return pts
}

// TestFoldScanMatchesReference: for every observer of every family,
// size and scale, collinearObserver emits the same pair set, with the
// same confirmable flags, as the comparison-sorted reference scan. The
// sizes straddle the comparison path's 48-direction cutoff and reach
// the bucket path at 512, where the clustered family takes the skew
// fallback (the test checks both paths are taken).
func TestFoldScanMatchesReference(t *testing.T) {
	families := []string{"uniform", "line", "grid", "spokes", "clustered", "axis"}
	sizes := []int{47, 48, 49, 512}
	if testing.Short() {
		sizes = sizes[:3]
	}
	rng := rand.New(rand.NewSource(28))
	var s raySort
	var got, want pairCollector
	paths := map[string]int{}
	for _, fam := range families {
		for _, n := range sizes {
			// At n = 512 every observer of the line family, and most of
			// the axis family's, emits tens of thousands of pairs (as
			// does every observer made degenerate by a small scale), so
			// that size runs at the one scale where every family sorts.
			scales := []float64{1e-3, 1, 1e3, 1e6}
			if n > 64 {
				scales = []float64{1e6}
			}
			for _, scale := range scales {
				name := fmt.Sprintf("%s/n%d/scale%g", fam, n, scale)
				pts := foldFamily(fam, n, scale, rng)
				for k := range pts {
					got.reset()
					want.reset()
					if collinearObserver(pts, k, 0, &s, got.emit) {
						t.Fatalf("%s: observer %d: scan stopped without a stop request", name, k)
					}
					foldScanRef(pts, k, 0, want.emit)
					if ok, diff := got.sameAs(&want); !ok {
						t.Fatalf("%s: observer %d: %s", name, k, diff)
					}
					paths[sortPath(t, pts, k, &s)]++
				}
			}
		}
	}
	if !testing.Short() && (paths["bucket"] == 0 || paths["skew fallback"] == 0) {
		t.Fatalf("sort paths taken %v; want both the bucket path and the skew fallback", paths)
	}
}

// sortPath folds observer k's directions as collinearObserver does,
// sorts them with s, checks the result is ordered by (angle, idx), and
// reports which path raySort.sort took.
func sortPath(t *testing.T, pts []Point, k int, s *raySort) string {
	t.Helper()
	rays := s.rays(len(pts))
	for j := range pts {
		if d := pts[j].Sub(pts[k]); j != k && d.Norm2() != 0 {
			phi := pseudoAngle(d)
			if phi < 0 {
				phi += 2
			}
			if phi >= 2 {
				phi -= 2
			}
			rays = append(rays, ray{theta: phi, idx: j})
		}
	}
	n := len(rays)
	rays = s.sort(rays, 0, 2)
	if !slices.IsSortedFunc(rays, func(x, y ray) int {
		if c := cmp.Compare(x.theta, y.theta); c != 0 {
			return c
		}
		return cmp.Compare(x.idx, y.idx)
	}) {
		t.Fatalf("raySort.sort left observer %d's rays out of (angle, idx) order", k)
	}
	if n < 48 {
		return "comparison"
	}
	// The bucket path runs unless more than 64 rays share one of the
	// nb (n rounded up to a power of two) equal buckets of [0, 2).
	nb := 1
	for nb < n {
		nb <<= 1
	}
	per := make(map[int]int)
	for _, r := range rays {
		b := min(int(r.theta*float64(nb)/2), nb-1)
		if per[b]++; per[b] > 64 {
			return "skew fallback"
		}
	}
	return "bucket"
}

// TestCollinearCandidatesDeterministic: a scan stopped at its first
// candidate visits the same triple every time, and so does the whole
// visit sequence of a scan that runs to the end.
func TestCollinearCandidatesDeterministic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, fam := range []string{"grid", "spokes", "axis", "clustered"} {
		for _, n := range []int{47, 512} {
			pts := foldFamily(fam, n, 1, rng)
			first := func() Triple {
				var tr Triple
				if !CollinearCandidates(pts, 0, func(x Triple) bool { tr = x; return true }) {
					t.Fatalf("%s n=%d: no candidate triple", fam, n)
				}
				return tr
			}
			if a, b := first(), first(); a != b {
				t.Fatalf("%s n=%d: first candidate %v, then %v", fam, n, a, b)
			}
			if n > 64 {
				continue
			}
			all := func() []Triple {
				var seq []Triple
				CollinearCandidates(pts, 0, func(x Triple) bool { seq = append(seq, x); return false })
				return seq
			}
			if a, b := all(), all(); !slices.Equal(a, b) {
				t.Fatalf("%s n=%d: visit sequences differ (%d and %d visits)", fam, n, len(a), len(b))
			}
		}
	}
}
