// Package metrics derives the quantities the experiment tables report
// from engine results and raw configurations: visibility-graph density,
// hull composition, movement cost, and aggregations of repeated runs.
package metrics

import (
	"math"

	"luxvis/internal/geom"
	"luxvis/internal/sim"
	"luxvis/internal/stats"
)

// HullStats summarizes the hull composition of a configuration.
type HullStats struct {
	N         int
	Corners   int
	EdgeRobot int
	Interior  int
	// Depth is the number of convex-hull peeling layers.
	Depth int
	// Area and Perimeter describe the outer hull.
	Area, Perimeter float64
}

// HullOf computes HullStats for a configuration.
func HullOf(pts []geom.Point) HullStats {
	hs := HullStats{N: len(pts)}
	if len(pts) == 0 {
		return hs
	}
	h := geom.ConvexHull(pts)
	hs.Area = h.Area()
	hs.Perimeter = h.Perimeter()
	for _, p := range pts {
		switch h.Classify(p) {
		case geom.HullCorner:
			hs.Corners++
		case geom.HullEdge:
			hs.EdgeRobot++
		default:
			hs.Interior++
		}
	}
	hs.Depth = PeelDepth(pts)
	return hs
}

// PeelDepth returns the number of convex-hull peeling layers of pts
// (the "onion depth"). A configuration in convex position has depth 1.
func PeelDepth(pts []geom.Point) int {
	rest := append([]geom.Point(nil), pts...)
	depth := 0
	for len(rest) > 0 {
		depth++
		h := geom.ConvexHull(rest)
		next := rest[:0]
		for _, p := range rest {
			if c := h.Classify(p); c != geom.HullCorner && c != geom.HullEdge {
				next = append(next, p)
			}
		}
		if len(next) == len(rest) {
			// Numerical stall; every remaining point claims to be
			// interior of its own hull, which cannot happen — stop
			// rather than loop.
			break
		}
		rest = next
	}
	return depth
}

// RunStats aggregates a batch of engine results for one experiment cell
// (one algorithm, one scheduler, one N, many seeds).
type RunStats struct {
	Runs        int
	Reached     int
	Epochs      stats.Summary
	FirstCV     stats.Summary
	Moves       stats.Summary
	DistPerBot  stats.Summary
	MaxColors   int
	Collisions  int
	PathCrosses int
}

// Aggregate folds a batch of results into RunStats. It panics on an
// empty batch — aggregating nothing is a harness bug.
func Aggregate(results []sim.Result) RunStats {
	if len(results) == 0 {
		panic("metrics: Aggregate of empty result batch")
	}
	rs := RunStats{Runs: len(results)}
	epochs := make([]float64, 0, len(results))
	firstCV := make([]float64, 0, len(results))
	moves := make([]float64, 0, len(results))
	dist := make([]float64, 0, len(results))
	for _, r := range results {
		if r.Reached {
			rs.Reached++
		}
		epochs = append(epochs, float64(r.Epochs))
		if r.FirstCVEpoch >= 0 {
			firstCV = append(firstCV, float64(r.FirstCVEpoch))
		}
		moves = append(moves, float64(r.Moves)/math.Max(1, float64(r.N)))
		dist = append(dist, r.TotalDist/math.Max(1, float64(r.N)))
		if r.ColorsUsed > rs.MaxColors {
			rs.MaxColors = r.ColorsUsed
		}
		rs.Collisions += r.Collisions
		rs.PathCrosses += r.PathCrossings
	}
	rs.Epochs = stats.Summarize(epochs)
	if len(firstCV) > 0 {
		rs.FirstCV = stats.Summarize(firstCV)
	}
	rs.Moves = stats.Summarize(moves)
	rs.DistPerBot = stats.Summarize(dist)
	return rs
}
