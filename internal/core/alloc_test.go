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
// has built its hull allocates nothing, for a corner robot (which reads
// only the shared hull) and for an interior robot (which also builds
// the beacon hull and its landing slots in scratch).
func TestLogVisComputeAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	pts := config.Generate(config.Uniform, 48, 1)
	hull := geom.ConvexHull(pts)
	// Corners light Corner and so serve as beacons; every other robot
	// is still to be placed.
	colors := make([]model.Color, len(pts))
	corner, interior := -1, -1
	for i, p := range pts {
		colors[i] = model.Interior
		switch hull.Classify(p) {
		case geom.HullCorner:
			colors[i] = model.Corner
			corner = i
		case geom.HullInterior:
			interior = i
		}
	}
	if corner < 0 || interior < 0 {
		t.Fatalf("start has no corner (%d) or no interior robot (%d)", corner, interior)
	}
	world := new(model.World)
	snapOf := func(r int) model.Snapshot {
		s := model.Snapshot{Self: model.RobotView{Pos: pts[r], Color: colors[r]}, World: world}
		for j, p := range pts {
			if j != r {
				s.Others = append(s.Others, model.RobotView{Pos: p, Color: colors[j]})
			}
		}
		return s
	}
	a := core.NewLogVis()
	for _, c := range []struct {
		name  string
		robot int
		want  model.Color
	}{
		{"corner", corner, model.Corner},
		{"interior", interior, model.Transit},
	} {
		s := snapOf(c.robot)
		if got := a.Compute(s); got.Color != c.want {
			t.Fatalf("%s robot computes %v, want %v", c.name, got.Color, c.want)
		}
		if allocs := testing.AllocsPerRun(100, func() { a.Compute(s) }); allocs != 0 {
			t.Errorf("warm Compute of the %s robot allocates %.1f times per call, want 0", c.name, allocs)
		}
	}
}
