package geom

import (
	"math"
	"slices"
)

// ray is one direction from an observer to another point: the
// pseudo-angle of the offset, the squared distance, and the target's
// index.
type ray struct {
	theta float64 // pseudo-angle in [-2, 2], see pseudoAngle
	dist2 float64
	idx   int
}

// pseudoAngle maps direction d to a monotone stand-in for its polar
// angle: the position of d on the diamond |x|+|y| = 1, in [-2, 2],
// strictly increasing with Atan2(d.Y, d.X) and hitting ±2 at the
// negative x-axis branch cut. It costs one division instead of a
// transcendental, and a small angular gap of g radians maps to a
// pseudo-angle gap in [g/2, g] — so clustering pseudo-angles with a
// radian-derived tolerance only ever joins more, never fewer,
// near-equal directions than clustering true angles would.
func pseudoAngle(d Point) float64 {
	r := d.X / (abs(d.X) + abs(d.Y))
	if d.Y < 0 {
		return r - 1 // lower half plane: (-2, 0)
	}
	return 1 - r // upper half plane (incl. ±0): [0, 2]
}

// rowArena is the reusable scratch of one visibility-row computation.
// Buffers grow to the swarm size once and are reused thereafter, so a
// warm arena computes rows without allocating.
type rowArena struct {
	rays []ray
	tmp  []ray   // bucket-sort scatter target, swapped with rays
	cnt  []int32 // bucket-sort counters
	run  []ray   // scratch for runs that wrap across the branch cut
	mask []byte  // per-point visible flags, emitted in index order
}

// sortRays sorts a.rays by (theta, dist2). Large ray sets use a bucket
// sort over the pseudo-angle range: directions from an observer are
// near-uniform in practice, so buckets hold O(1) rays and the sort runs
// in linear time; pathological bucket skew falls back to the comparison
// sort. The sorted order — all the downstream clustering sees — is
// identical either way.
func (a *rowArena) sortRays() {
	rays := a.rays
	n := len(rays)
	if n < 48 {
		sortRaysCmp(rays)
		return
	}
	nb := 1
	for nb < n && nb < 1<<16 {
		nb <<= 1
	}
	if cap(a.cnt) < nb+1 {
		a.cnt = make([]int32, nb+1)
	}
	cnt := a.cnt[:nb+1]
	for i := range cnt {
		cnt[i] = 0
	}
	if cap(a.tmp) < n {
		a.tmp = make([]ray, n)
	}
	tmp := a.tmp[:n]
	scale := float64(nb) / 4
	bucketOf := func(theta float64) int {
		v := (theta + 2) * scale
		if !(v > 0) { // negative or a NaN pseudo-angle
			return 0
		}
		c := int(v)
		if c >= nb {
			c = nb - 1
		}
		return c
	}
	maxBucket := int32(0)
	for i := range rays {
		c := bucketOf(rays[i].theta)
		cnt[c+1]++
		if cnt[c+1] > maxBucket {
			maxBucket = cnt[c+1]
		}
	}
	if maxBucket > 64 {
		// Heavily skewed directions (clustered configurations): the
		// per-bucket insertion sorts would go quadratic.
		sortRaysCmp(rays)
		return
	}
	for c := 1; c < len(cnt); c++ {
		cnt[c] += cnt[c-1]
	}
	for i := range rays {
		c := bucketOf(rays[i].theta)
		tmp[cnt[c]] = rays[i]
		cnt[c]++
	}
	// cnt[c] now holds the end offset of bucket c; buckets are already
	// ordered relative to each other, so a bounded insertion sort within
	// each finishes the job.
	lo := int32(0)
	for c := 0; c < nb; c++ {
		hi := cnt[c]
		for i := lo + 1; i < hi; i++ {
			for j := i; j > lo && rayLess(tmp[j], tmp[j-1]); j-- {
				tmp[j], tmp[j-1] = tmp[j-1], tmp[j]
			}
		}
		lo = hi
	}
	a.rays, a.tmp = tmp, rays
}

func rayLess(x, y ray) bool {
	if x.theta != y.theta {
		return x.theta < y.theta
	}
	return x.dist2 < y.dist2
}

func sortRaysCmp(rays []ray) {
	slices.SortFunc(rays, func(x, y ray) int {
		switch {
		case x.theta < y.theta:
			return -1
		case x.theta > y.theta:
			return 1
		case x.dist2 < y.dist2:
			return -1
		case x.dist2 > y.dist2:
			return 1
		default:
			return 0
		}
	})
}

// visibleRow computes the visible set of pts[i] into out (which is
// truncated and appended to, so callers can reuse its backing array) and
// returns it, sorted by index. It is the single implementation behind
// VisibleSetFast and Kernel.VisibleRow: identical inputs give
// identical outputs regardless of which entry point or arena is used.
func (a *rowArena) visibleRow(pts []Point, i int, out []int) []int {
	self := pts[i]
	rays := a.rays[:0]
	minD2 := math.Inf(1)
	maxL1 := 0.0
	for j, p := range pts {
		if j == i {
			continue
		}
		d := p.Sub(self)
		d2 := d.Norm2()
		if d2 == 0 {
			continue // coincident: not visible
		}
		rays = append(rays, ray{theta: pseudoAngle(d), dist2: d2, idx: j})
		if d2 < minD2 {
			minD2 = d2
		}
		if l1 := abs(d.X) + abs(d.Y); l1 > maxL1 {
			maxL1 = l1
		}
	}
	a.rays = rays
	out = out[:0]
	if len(rays) == 0 {
		return out
	}
	// Verdicts accumulate in a per-point mask and are emitted in index
	// order at the end — an O(n) pass instead of sorting the result.
	if cap(a.mask) < len(pts) {
		a.mask = make([]byte, len(pts))
	}
	mask := a.mask[:len(pts)]
	for j := range mask {
		mask[j] = 0
	}
	a.sortRays()
	rays = a.rays

	tol, ok := foldTol(minD2, maxL1)
	if !ok {
		// Degenerate observer (some point nearly coincident with it): no
		// angular tolerance can bound the obstruction cone, so fall back
		// to the quadratic confirmation over all rays at once. This is
		// exactly the O(n²) reference semantics of VisibleFrom.
		markRunVerdicts(pts, self, rays, mask)
		return emitMask(mask, out)
	}

	// Cluster the rays into circular runs of near-equal direction:
	// consecutive (circularly, so the branch cut at pseudo-angle ±2
	// does not split a run) rays closer than tol chain into one run.
	// Runs are tiny in non-degenerate configurations, so the quadratic
	// confirmation inside a run is cheap.
	n := len(rays)
	gapAfter := func(j int) float64 {
		if j == n-1 {
			return rays[0].theta + 4 - rays[n-1].theta
		}
		return rays[j+1].theta - rays[j].theta
	}
	start := -1
	for j := 0; j < n; j++ {
		if gapAfter(j) >= tol {
			start = (j + 1) % n
			break
		}
	}
	if start < 0 {
		// Every circular gap closes: the whole set is one run.
		markRunVerdicts(pts, self, rays, mask)
		return emitMask(mask, out)
	}
	for consumed, lo := 0, start; consumed < n; {
		runLen := 1
		for consumed+runLen < n && gapAfter((lo+runLen-1)%n) < tol {
			runLen++
		}
		if lo+runLen <= n {
			markRunVerdicts(pts, self, rays[lo:lo+runLen], mask)
		} else {
			// The run wraps across the branch cut: gather it into the
			// contiguous scratch so the all-pairs confirmation sees the
			// first and last direction buckets merged.
			wrapped := a.run[:0]
			for k := 0; k < runLen; k++ {
				wrapped = append(wrapped, rays[(lo+k)%n])
			}
			a.run = wrapped
			markRunVerdicts(pts, self, wrapped, mask)
		}
		consumed += runLen
		lo = (lo + runLen) % n
	}
	return emitMask(mask, out)
}

// markRunVerdicts marks the run's visible members in mask: a member is
// visible unless another member of the same run lies strictly between
// the observer and it. Singleton runs are visible by construction;
// points absent from any run (coincident with the observer) keep their
// zero mask.
func markRunVerdicts(pts []Point, self Point, run []ray, mask []byte) {
	if len(run) == 1 {
		mask[run[0].idx] = 1
		return
	}
	for a := 0; a < len(run); a++ {
		blocked := false
		for b := 0; b < len(run); b++ {
			if a == b {
				continue
			}
			if StrictlyBetween(self, pts[run[a].idx], pts[run[b].idx]) {
				blocked = true
				break
			}
		}
		if !blocked {
			mask[run[a].idx] = 1
		}
	}
}

// emitMask appends the marked indices to out in increasing order.
func emitMask(mask []byte, out []int) []int {
	for j, m := range mask {
		if m != 0 {
			out = append(out, j)
		}
	}
	return out
}

// VisibleSetFast returns the indices of the points visible from pts[i] in
// O(n log n): points are bucketed by their ray direction from pts[i];
// within a bucket of collinear same-side points only the nearest is
// visible, and points collinear through pts[i] on opposite sides do not
// obstruct each other. The result matches VisibleFrom (the O(n²)
// reference) and the equivalence is property-tested and fuzzed.
//
// Buckets are chained circularly, so directions straddling the negative
// x-axis branch cut (angle +π versus −π+ε, including the -0.0
// y-coordinate case) merge into one bucket, and the bucket tolerance
// adapts to the observer's ray geometry (see foldTol) so that
// close-range obstructions with a wide angular footprint are never
// missed.
//
// Coincident points (violating the model's distinctness invariant) are
// treated as mutually invisible, matching Visible.
//
// Each call allocates its own scratch; hot paths should use
// Kernel.VisibleRow, which reuses its arena across calls.
func VisibleSetFast(pts []Point, i int) []int {
	var a rowArena
	return a.visibleRow(pts, i, nil)
}
