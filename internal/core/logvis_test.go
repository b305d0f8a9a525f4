package core

import (
	"math"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

func view(p geom.Point, c model.Color) model.RobotView {
	return model.RobotView{Pos: p, Color: c}
}

func snapOf(self geom.Point, selfColor model.Color, others ...model.RobotView) model.Snapshot {
	return model.Snapshot{Self: model.RobotView{Pos: self, Color: selfColor}, Others: others}
}

func TestPaletteConstant(t *testing.T) {
	a := NewLogVis()
	p := a.Palette()
	if len(p) > int(model.NumColors) {
		t.Fatalf("palette size %d exceeds the shared enum", len(p))
	}
	if len(p) != 7 {
		t.Errorf("palette size = %d, want 7 (the O(1) colors claim)", len(p))
	}
	seen := map[model.Color]bool{}
	for _, c := range p {
		if seen[c] {
			t.Errorf("duplicate palette color %v", c)
		}
		seen[c] = true
	}
}

func TestComputeAlone(t *testing.T) {
	a := NewLogVis()
	act := a.Compute(snapOf(geom.Pt(5, 5), model.Off))
	if !act.IsStay(geom.Pt(5, 5)) || act.Color != model.Done {
		t.Errorf("alone: %+v", act)
	}
}

func TestComputePair(t *testing.T) {
	a := NewLogVis()
	act := a.Compute(snapOf(geom.Pt(0, 0), model.Off, view(geom.Pt(10, 0), model.Off)))
	if !act.IsStay(geom.Pt(0, 0)) || act.Color != model.Corner {
		t.Errorf("pair: %+v", act)
	}
}

func TestComputeLineMiddleMovesOff(t *testing.T) {
	a := NewLogVis()
	// Middle of three collinear robots: must move perpendicularly off
	// the line with the Transit light.
	self := geom.Pt(5, 0)
	s := snapOf(self, model.Off, view(geom.Pt(0, 0), model.Off), view(geom.Pt(10, 0), model.Off))
	act := a.Compute(s)
	if act.IsStay(self) {
		t.Fatal("line middle did not move")
	}
	if act.Color != model.Transit {
		t.Errorf("line middle color = %v", act.Color)
	}
	if math.Abs(act.Target.X-5) > 1e-9 {
		t.Errorf("move not perpendicular: %v", act.Target)
	}
	if act.Target.Y == 0 {
		t.Error("target still on the line")
	}
}

func TestComputeLineEndpointHolds(t *testing.T) {
	a := NewLogVis()
	// A line endpoint sees only its (blocking) neighbour.
	act := a.Compute(snapOf(geom.Pt(0, 0), model.Off, view(geom.Pt(5, 0), model.Off)))
	if !act.IsStay(geom.Pt(0, 0)) || act.Color != model.Corner {
		t.Errorf("endpoint: %+v", act)
	}
	// An endpoint seeing several collinear robots also holds.
	act = a.Compute(snapOf(geom.Pt(0, 0), model.Off,
		view(geom.Pt(5, 1), model.Off), view(geom.Pt(10, 2), model.Off)))
	if !act.IsStay(geom.Pt(0, 0)) || act.Color != model.Corner {
		t.Errorf("multi endpoint: %+v", act)
	}
}

func TestComputeCornerHolds(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(0, 0)
	s := snapOf(self, model.Off,
		view(geom.Pt(10, 0), model.Off),
		view(geom.Pt(5, 8), model.Off),
		view(geom.Pt(4, 3), model.Off), // interior robot
	)
	act := a.Compute(s)
	if !act.IsStay(self) || act.Color != model.Corner {
		t.Errorf("corner: %+v", act)
	}
}

func TestCornerTurnsDoneWhenSettled(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(0, 0)
	s := snapOf(self, model.Corner,
		view(geom.Pt(10, 0), model.Corner),
		view(geom.Pt(5, 8), model.Done),
	)
	act := a.Compute(s)
	if act.Color != model.Done {
		t.Errorf("settled corner color = %v", act.Color)
	}
	// With an interior robot visible it must stay Corner.
	s.Others = append(s.Others, view(geom.Pt(5, 3), model.Interior))
	act = a.Compute(s)
	if act.Color != model.Corner {
		t.Errorf("unsettled corner color = %v", act.Color)
	}
}

func TestComputeSideWaitsForInterior(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(5, 0) // on edge between (0,0) and (10,0)
	s := snapOf(self, model.Off,
		view(geom.Pt(0, 0), model.Corner),
		view(geom.Pt(10, 0), model.Corner),
		view(geom.Pt(5, 8), model.Corner),
		view(geom.Pt(5, 3), model.Interior),
	)
	act := a.Compute(s)
	if !act.IsStay(self) || act.Color != model.Side {
		t.Errorf("side with interior visible: %+v", act)
	}
}

func TestComputeSideBulgesOutward(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(5, 0)
	s := snapOf(self, model.Side,
		view(geom.Pt(0, 0), model.Corner),
		view(geom.Pt(10, 0), model.Corner),
		view(geom.Pt(5, 8), model.Corner),
	)
	act := a.Compute(s)
	if act.IsStay(self) {
		t.Fatal("side did not bulge")
	}
	if act.Color != model.Beacon {
		t.Errorf("bulge color = %v", act.Color)
	}
	if act.Target.Y >= 0 {
		t.Errorf("bulge went inward: %v (hull is above the edge)", act.Target)
	}
	if math.Abs(act.Target.X-5) > 1e-9 {
		t.Errorf("bulge not perpendicular: %v", act.Target)
	}
}

func TestComputeInteriorLandsOutside(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(5, 2) // interior of the triangle
	s := snapOf(self, model.Interior,
		view(geom.Pt(0, 0), model.Corner),
		view(geom.Pt(10, 0), model.Corner),
		view(geom.Pt(5, 8), model.Corner),
	)
	act := a.Compute(s)
	if act.IsStay(self) {
		t.Fatal("interior robot did not move")
	}
	if act.Color != model.Transit {
		t.Errorf("lander color = %v", act.Color)
	}
	// The landing point must be strictly outside the current hull
	// (direct corner insertion).
	hull := geom.ConvexHull([]geom.Point{geom.Pt(0, 0), geom.Pt(10, 0), geom.Pt(5, 8)})
	if hull.Classify(act.Target) != geom.HullOutside {
		t.Errorf("landing %v not outside the hull", act.Target)
	}
}

func TestInteriorWaitsWithoutBeacons(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(5, 2)
	s := snapOf(self, model.Off,
		view(geom.Pt(0, 0), model.Off),
		view(geom.Pt(10, 0), model.Off),
		view(geom.Pt(5, 8), model.Off),
	)
	act := a.Compute(s)
	if !act.IsStay(self) || act.Color != model.Interior {
		t.Errorf("interior without beacons: %+v", act)
	}
}

func TestInteriorYieldsToInboundLander(t *testing.T) {
	a := NewLogVis()
	self := geom.Pt(5, 2)
	s := snapOf(self, model.Interior,
		view(geom.Pt(0, 0), model.Corner),
		view(geom.Pt(10, 0), model.Corner),
		view(geom.Pt(5, 8), model.Corner),
		// A lander already descending onto the bottom edge.
		view(geom.Pt(4, 1), model.Transit),
	)
	act := a.Compute(s)
	// The robot must not race the lander into the same interval: it
	// either waits or picks a different edge.
	if !act.IsStay(self) {
		_, tt := geom.ProjectOntoLine(geom.Pt(0, 0), geom.Pt(10, 0), act.Target)
		land := geom.Seg(geom.Pt(0, 0), geom.Pt(10, 0)).Dist(act.Target) < 1
		if land && tt > 0 && tt < 1 {
			t.Errorf("raced the inbound lander: %+v", act)
		}
	}
}

func TestComputeDeterministic(t *testing.T) {
	a := NewLogVis()
	s := snapOf(geom.Pt(5, 2), model.Interior,
		view(geom.Pt(0, 0), model.Corner),
		view(geom.Pt(10, 0), model.Corner),
		view(geom.Pt(5, 8), model.Corner),
	)
	first := a.Compute(s)
	for i := 0; i < 10; i++ {
		if got := a.Compute(s); got != first {
			t.Fatalf("Compute not deterministic: %+v vs %+v", got, first)
		}
	}
}

func TestLandingSagitta(t *testing.T) {
	// Capped by the chord fraction for big chords relative to diameter.
	if got := landingSagitta(16, 2); got != 1 {
		t.Errorf("capped sagitta = %v", got)
	}
	// Quadratic regime: h = c²/(8·D).
	if got := landingSagitta(4, 100); math.Abs(got-16.0/800) > 1e-12 {
		t.Errorf("quadratic sagitta = %v", got)
	}
	// Zero diameter falls back to the cap.
	if got := landingSagitta(16, 0); got != 1 {
		t.Errorf("no-diameter sagitta = %v", got)
	}
}

func TestTunableDefaults(t *testing.T) {
	a := &LogVis{BulgeFrac: -1, SlotMargin: 0.9, CorridorFrac: 2}
	if a.bulgeFrac() != 0.25 || a.slotMargin() != 0.25 || a.corridorFrac() != 0.125 {
		t.Error("invalid tunables not defaulted")
	}
	b := &LogVis{BulgeFrac: 0.1, SlotMargin: 0.3, CorridorFrac: 0.2}
	if b.bulgeFrac() != 0.1 || b.slotMargin() != 0.3 || b.corridorFrac() != 0.2 {
		t.Error("valid tunables overridden")
	}
}
