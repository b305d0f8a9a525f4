package core_test

import (
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// TestLogVisComputeAllocs is LogVis's zero-allocation guard: once its
// pooled scratch is warm, a Compute on a full view whose shared World
// has built its hull and bounds allocates nothing. It covers a corner
// robot (which reads only the shared hull) and three interior robots,
// which build their landing slots in scratch: one whose beacon ring
// the scratch remembers (a memo hit), one that cycles through more
// beacon lists than the scratch remembers, so every call misses and
// rebuilds the beacon hull and the ring, and one whose beacons are
// collinear (a two-corner beacon hull), also missing on every call.
func TestLogVisComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	corner, hit, misses := beaconViews(t, 48)

	// A collinear beacon set: Corner robots at the ends of a row of
	// Side robots on the x axis, Interior robots above it. Each miss
	// view lights one Side robot away from self's slot Interior.
	var line []geom.Point
	var lineColors []model.Color
	for x := -8; x <= 8; x++ {
		line = append(line, geom.Pt(float64(x)+0.05*float64(x*x), 0))
		lineColors = append(lineColors, model.Side)
	}
	lineColors[0], lineColors[len(lineColors)-1] = model.Corner, model.Corner
	line = append(line, geom.Pt(-1, 1), geom.Pt(0.5, 2), geom.Pt(0.25, 0.5), geom.Pt(0, 12))
	for range 4 {
		lineColors = append(lineColors, model.Interior)
	}
	lineWorld := new(model.World)
	var collinear []model.Snapshot
	for _, r := range []int{1, 2, 3, 4, 5, 12, 13, 14, 15} {
		c := append([]model.Color(nil), lineColors...)
		c[r] = model.Interior
		collinear = append(collinear, fullView(line, c, len(line)-3, lineWorld))
	}
	if len(collinear) <= core.RingMemoSize {
		t.Fatalf("%d collinear views, want more than the %d the scratch remembers", len(collinear), core.RingMemoSize)
	}

	a := core.NewLogVis()
	for _, c := range []struct {
		name  string
		snaps []model.Snapshot
		want  model.Color
	}{
		{"corner", []model.Snapshot{corner}, model.Corner},
		{"interior memo hit", []model.Snapshot{hit}, model.Transit},
		{"interior memo miss", misses, model.Transit},
		{"collinear beacons", collinear, model.Transit},
	} {
		for _, s := range c.snaps {
			if got := a.Compute(s); got.Color != c.want {
				t.Fatalf("%s: robot computes %v, want %v", c.name, got.Color, c.want)
			}
		}
		next := 0
		compute := func() {
			a.Compute(c.snaps[next%len(c.snaps)])
			next++
		}
		// Warm the scratch at one proc, as AllocsPerRun measures: a
		// scratch put back on another proc's pool slot is out of reach.
		testing.AllocsPerRun(1, func() {
			for range 2 * len(c.snaps) {
				compute()
			}
		})
		if allocs := testing.AllocsPerRun(100, compute); allocs != 0 {
			t.Errorf("warm Compute of the %s robot allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}

// beaconViews returns full views of a uniform start of n robots whose
// hull corners light Corner, and so serve as beacons, while every other
// robot is still to be placed: a corner robot's view, an interior
// robot's view, and views of that interior robot that differ in one
// other interior robot lit Done. That is a stale beacon off the
// boundary, so each of those views has its own beacon list, and there
// is one more of them than a scratch remembers. The views share one
// World, as full views of one position state do.
func beaconViews(tb testing.TB, n int) (corner, hit model.Snapshot, misses []model.Snapshot) {
	pts := config.Generate(config.Uniform, n, 1)
	hull := geom.ConvexHull(pts)
	colors := make([]model.Color, len(pts))
	cornerRobot := -1
	var interior []int
	for i, p := range pts {
		colors[i] = model.Interior
		switch hull.Classify(p) {
		case geom.HullCorner:
			colors[i] = model.Corner
			cornerRobot = i
		case geom.HullInterior:
			interior = append(interior, i)
		}
	}
	if cornerRobot < 0 || len(interior) <= core.RingMemoSize+1 {
		tb.Fatalf("start has no corner (%d) or only %d interior robots", cornerRobot, len(interior))
	}
	world := new(model.World)
	self := interior[0]
	for _, r := range interior[1 : core.RingMemoSize+2] {
		c := append([]model.Color(nil), colors...)
		c[r] = model.Done
		misses = append(misses, fullView(pts, c, self, world))
	}
	return fullView(pts, colors, cornerRobot, world), fullView(pts, colors, self, world), misses
}

// fullView is robot self's snapshot of every robot at pts, lit colors,
// carrying world.
func fullView(pts []geom.Point, colors []model.Color, self int, world *model.World) model.Snapshot {
	s := model.Snapshot{Self: model.RobotView{Pos: pts[self], Color: colors[self]}, World: world}
	for j, p := range pts {
		if j != self {
			s.Others = append(s.Others, model.RobotView{Pos: p, Color: colors[j]})
		}
	}
	return s
}
