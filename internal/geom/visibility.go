package geom

// This file implements the obstructed-visibility predicates of the robots
// with lights model: robot k blocks i from j iff k lies strictly inside
// the open segment (i, j). Complete Visibility holds when every pair is
// mutually visible.

// Visible reports whether points i and j of pts see each other: no third
// point lies strictly between them. Coincident points never see each
// other (they violate the model's distinctness invariant anyway).
func Visible(pts []Point, i, j int) bool {
	if i == j {
		return false
	}
	a, b := pts[i], pts[j]
	if a.Eq(b) {
		return false
	}
	for k, p := range pts {
		if k == i || k == j {
			continue
		}
		if StrictlyBetween(a, b, p) {
			return false
		}
	}
	return true
}

// VisibleFrom returns the indices of all points visible from point i,
// in increasing index order.
func VisibleFrom(pts []Point, i int) []int {
	var out []int
	for j := range pts {
		if j != i && Visible(pts, i, j) {
			out = append(out, j)
		}
	}
	return out
}

// CompleteVisibility reports whether every pair of points is mutually
// visible. This is the goal predicate of the paper. For n ≤ 1 it holds
// trivially.
func CompleteVisibility(pts []Point) bool {
	for i := 0; i < len(pts); i++ {
		for j := i + 1; j < len(pts); j++ {
			if pts[i].Eq(pts[j]) {
				return false
			}
			if !Visible(pts, i, j) {
				return false
			}
		}
	}
	return true
}

// PathClear reports whether the open corridor from `from` to `to` is free
// of every point in obstacles: no obstacle lies strictly inside the
// segment and no obstacle coincides with the destination. Points within
// margin of the segment (but not collinear) also fail the check when
// margin > 0 — the algorithms use a small margin to keep moving robots
// from brushing past stationary ones.
func PathClear(from, to Point, obstacles []Point, margin float64) bool {
	seg := Seg(from, to)
	for _, p := range obstacles {
		if p.Eq(from) {
			continue
		}
		if p.Eq(to) {
			return false
		}
		if StrictlyBetween(from, to, p) {
			return false
		}
		if margin > 0 && seg.Dist(p) < margin {
			return false
		}
	}
	return true
}
