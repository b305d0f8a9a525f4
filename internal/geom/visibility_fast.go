package geom

import "math"

// This file implements the per-observer folded-direction scan behind the
// Complete Visibility check (Kernel.CompleteVisibilityFast) the engine
// runs at epoch boundaries, where the naive O(n³) predicate would
// dominate the run time at swarm sizes in the thousands, behind the
// per-move check Kernel.ClearAround, and behind the exact checker's
// candidate filter (CollinearCandidates).
//
// The key observation: Complete Visibility fails iff some robot k has two
// other robots collinear with it — if i and j lie on one line through k,
// then either k is between them (k blocks the pair i,j) or one of i,j is
// between k and the other (it blocks that pair). So CV ⟺ for every k,
// the directions of all other robots from k, folded modulo π, are
// pairwise distinct. Folding and sorting them with raySort, the bucket
// sort the visibility row uses, takes linear expected time per robot;
// directions too clustered for the buckets fall back to the O(n log n)
// comparison sort.

// angleFoldTol is the floor of the angular tolerance for treating two
// folded directions as collinear candidates. Candidates are confirmed
// with the cross-product predicate, so the tolerance only has to be loose
// enough to never miss a true collinearity — which is scale-dependent:
// AreCollinear accepts |cross| up to Eps·max(‖d_i‖₁, ‖d_j‖₁, 1), an
// angular acceptance that grows like Eps·diameter/dist² when points sit
// close together relative to the set's diameter. foldTol widens the
// tolerance accordingly per observer; this constant alone is only
// sufficient for well-spread configurations.
const angleFoldTol = 1e-6

// maxFoldTol caps the adaptive tolerance. An observer whose bound
// exceeds it has a neighbor so close that direction bucketing cannot
// separate anything reliably; scans then fall back to confirming all
// pairs for that observer (quadratic, but only for degenerate inputs).
const maxFoldTol = 0.1

// foldTol returns the angular clustering tolerance for an observer whose
// rays to the other points have minimum squared length minD2 and maximum
// L1 length maxL1. The bound dominates the angular acceptance of the
// Orient/AreCollinear predicates (≈ Eps·max(maxL1,1)/minD2, see Orient's
// scaled tolerance), with a 4× margin absorbing atan2 rounding and the
// fold. ok=false signals the degenerate fallback.
func foldTol(minD2, maxL1 float64) (tol float64, ok bool) {
	scale := maxL1
	if scale < 1 {
		scale = 1
	}
	bound := 4 * Eps * scale / minD2
	if bound > maxFoldTol || math.IsNaN(bound) {
		return 0, false
	}
	if bound < angleFoldTol {
		bound = angleFoldTol
	}
	return bound, true
}

// Triple records a candidate collinear triple (A, B, Blocker): from
// observer Blocker, A and B lie in near-equal folded directions, so
// Blocker may lie on the line through A and B (not necessarily between
// them).
type Triple struct {
	A, B, Blocker int
}

// CollinearCandidates calls visit with every pair whose folded
// directions from some observer agree within tol, without a
// collinearity confirmation, until visit returns true; it reports
// whether visit stopped the scan. The exact checker uses it as a
// superset filter: every exactly-collinear triple has a folded-angle gap
// far below any reasonable tol, so confirming only the candidates with
// exact arithmetic decides Complete Visibility exactly, and the scan
// stops at the first confirmed one. tol acts as a floor — per observer
// the scan widens it to the scale-aware foldTol bound, so the superset
// contract holds at any coordinate magnitude. A point coincident with
// observer k comes back as the degenerate Triple{A: k, B: j, Blocker: j}.
func CollinearCandidates(pts []Point, tol float64, visit func(Triple) (stop bool)) bool {
	if tol <= 0 {
		tol = angleFoldTol
	}
	var s raySort
	k := 0
	emit := func(a, b int, confirmable bool) bool {
		if confirmable {
			return visit(Triple{A: a, B: b, Blocker: k})
		}
		return visit(Triple{A: k, B: a, Blocker: b})
	}
	for ; k < len(pts); k++ {
		if collinearObserver(pts, k, tol, &s, emit) {
			return true
		}
	}
	return false
}

// collinearObserver scans a single observer k: it folds the directions of
// all other points modulo π, sorts them by (angle, idx) with raySort,
// clusters them circularly (the runs near 0 and near π chain across the
// fold, mirroring the ±π branch cut handling of visibleRow), and calls
// emit for every pair within a run. Degenerate pairs (coincident with k)
// and observers whose adaptive tolerance blows past maxFoldTol emit with
// confirmable=false / all pairs respectively. s is reusable
// caller-owned scratch. A true return from emit stops the scan and
// propagates.
func collinearObserver(pts []Point, k int, floorTol float64, s *raySort, emit func(a, b int, confirmable bool) bool) bool {
	dirs := s.rays(len(pts))
	minD2 := math.Inf(1)
	maxL1 := 0.0
	for j := range pts {
		if j == k {
			continue
		}
		d := pts[j].Sub(pts[k])
		d2 := d.Norm2()
		if d2 == 0 {
			// Coincident points: report as a degenerate pair so callers
			// fail the configuration.
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
		dirs = append(dirs, ray{theta: phi, idx: j})
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
	tol, ok := foldTol(minD2, maxL1)
	if !ok {
		// Degenerate observer: bucketing is meaningless, emit every pair
		// and let the confirmation predicate decide.
		for a := 0; a < len(dirs); a++ {
			for b := a + 1; b < len(dirs); b++ {
				if emit(dirs[a].idx, dirs[b].idx, true) {
					return true
				}
			}
		}
		return false
	}
	if tol < floorTol {
		tol = floorTol
	}
	dirs = s.sort(dirs, 0, 2)
	// Cluster the sorted folded pseudo-angles into circular runs of
	// near-equal direction and emit every pair within a run:
	// adjacent-only comparison could miss a collinear pair separated by
	// a third, almost-collinear direction between them, and runs near 0
	// and near the fold boundary 2 are the same line, so clustering
	// wraps around the fold. Pseudo-angle gaps understate radian gaps
	// (by at most 2×), so a radian-derived tolerance only ever widens
	// the candidate set here.
	m := len(dirs)
	gapAfter := func(j int) float64 {
		if j == m-1 {
			return dirs[0].theta + 2 - dirs[m-1].theta
		}
		return dirs[j+1].theta - dirs[j].theta
	}
	start := -1
	for j := 0; j < m; j++ {
		if gapAfter(j) >= tol {
			start = (j + 1) % m
			break
		}
	}
	if start < 0 {
		// All folded directions chain into one run.
		for a := 0; a < m; a++ {
			for b := a + 1; b < m; b++ {
				if emit(dirs[a].idx, dirs[b].idx, true) {
					return true
				}
			}
		}
		return false
	}
	for consumed, lo := 0, start; consumed < m; {
		runLen := 1
		for consumed+runLen < m && gapAfter((lo+runLen-1)%m) < tol {
			runLen++
		}
		for a := 0; a < runLen; a++ {
			for b := a + 1; b < runLen; b++ {
				if emit(dirs[(lo+a)%m].idx, dirs[(lo+b)%m].idx, true) {
					return true
				}
			}
		}
		consumed += runLen
		lo = (lo + runLen) % m
	}
	return false
}
