package core

// Property-based tests (testing/quick) on the algorithm's geometric
// invariants: landing points are strictly monotone in the robot's foot
// parameter (the collision-freedom keystone), landings stay outside the
// hull, and Compute is a pure function of the snapshot.

import (
	"math/rand"
	"testing"
	"testing/quick"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// landingSnap builds a triangle of corner beacons with an interior robot
// at p.
func landingSnap(p geom.Point) model.Snapshot {
	return model.Snapshot{
		Self: model.RobotView{Pos: p, Color: model.Interior},
		Others: []model.RobotView{
			{Pos: geom.Pt(0, 0), Color: model.Corner},
			{Pos: geom.Pt(100, 0), Color: model.Corner},
			{Pos: geom.Pt(50, 80), Color: model.Corner},
		},
	}
}

// landAt is landingPoint for the interior robot of landingSnap(p).
func landAt(a *LogVis, p geom.Point, sl slot) (geom.Point, bool) {
	s := landingSnap(p)
	lo, hi := geom.BoundingBox(s.Points())
	return a.landingPoint(s, sl, hi.Sub(lo).Norm())
}

func TestLandingPointMonotoneInFoot(t *testing.T) {
	a := NewLogVis()
	sl := slot{u: geom.Pt(0, 0), v: geom.Pt(100, 0)}
	// Two interior robots at the same height above the bottom edge with
	// different x (feet) must land at strictly ordered points. This is
	// the property that makes racing landers safe.
	f := func(x1, x2, yFrac float64) bool {
		if x1 == x2 {
			return true
		}
		for _, v := range []float64{x1, x2, yFrac} {
			if v != v || v > 1e12 || v < -1e12 {
				return true // outside the library's operating range
			}
		}
		// Keep both strictly inside the triangle's lower region.
		x1 = 5 + mod(x1, 90)
		x2 = 5 + mod(x2, 90)
		if x1 == x2 {
			return true
		}
		y := 1 + mod(yFrac, 30)
		p1, ok1 := landAt(a, geom.Pt(x1, y), sl)
		p2, ok2 := landAt(a, geom.Pt(x2, y), sl)
		if !ok1 || !ok2 {
			return false
		}
		if p1.Eq(p2) {
			return false // identical landings would collide
		}
		// Order along the chord must follow the feet.
		return (x1 < x2) == (p1.X < p2.X)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func mod(x, m float64) float64 {
	v := x - float64(int64(x/m))*m
	if v < 0 {
		v += m
	}
	return v
}

func TestLandingPointOutsideChord(t *testing.T) {
	a := NewLogVis()
	sl := slot{u: geom.Pt(0, 0), v: geom.Pt(100, 0)}
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 300; i++ {
		p := geom.Pt(5+rng.Float64()*90, 1+rng.Float64()*60)
		target, ok := landAt(a, p, sl)
		if !ok {
			t.Fatal("landingPoint failed")
		}
		// The robot is above the chord (interior side); the landing
		// must be strictly below it (outside the hull).
		if geom.Orient(sl.u, sl.v, target) != geom.CW {
			t.Fatalf("landing %v not on the outward side (robot at %v)", target, p)
		}
		// And within the chord's parameter range with margins.
		_, tt := geom.ProjectOntoLine(sl.u, sl.v, target)
		if tt <= 0 || tt >= 1 {
			t.Fatalf("landing parameter %v outside (0,1)", tt)
		}
	}
}

func TestComputePure(t *testing.T) {
	// Compute must not retain state across calls: interleaving calls
	// for different snapshots must give the same results as isolated
	// calls. (Oblivious robots are a model requirement.)
	a := NewLogVis()
	rng := rand.New(rand.NewSource(7))
	snaps := make([]model.Snapshot, 20)
	for i := range snaps {
		snaps[i] = landingSnap(geom.Pt(5+rng.Float64()*90, 1+rng.Float64()*60))
	}
	isolated := make([]model.Action, len(snaps))
	for i, s := range snaps {
		isolated[i] = NewLogVis().Compute(s)
	}
	for round := 0; round < 3; round++ {
		for i := len(snaps) - 1; i >= 0; i-- {
			if got := a.Compute(snaps[i]); got != isolated[i] {
				t.Fatalf("Compute retained state: snap %d round %d: %+v vs %+v",
					i, round, got, isolated[i])
			}
		}
	}
}

func TestComputeFrameInvariantTranslation(t *testing.T) {
	// The algorithm's decisions must be translation-covariant: shifting
	// the whole snapshot shifts the target by the same vector.
	a := NewLogVis()
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 200; i++ {
		p := geom.Pt(5+rng.Float64()*90, 1+rng.Float64()*60)
		shift := geom.Pt(rng.Float64()*1000-500, rng.Float64()*1000-500)
		s := landingSnap(p)
		shifted := model.Snapshot{
			Self: model.RobotView{Pos: s.Self.Pos.Add(shift), Color: s.Self.Color},
		}
		for _, o := range s.Others {
			shifted.Others = append(shifted.Others,
				model.RobotView{Pos: o.Pos.Add(shift), Color: o.Color})
		}
		act := a.Compute(s)
		actShift := a.Compute(shifted)
		if act.Color != actShift.Color {
			t.Fatalf("translation changed color: %v vs %v", act.Color, actShift.Color)
		}
		want := act.Target.Add(shift)
		if want.Dist(actShift.Target) > 1e-6*(1+shift.Norm()) {
			t.Fatalf("translation broke covariance: %v vs %v (shift %v)",
				actShift.Target, want, shift)
		}
	}
}

func TestSlotBusyRespectsDistance(t *testing.T) {
	a := NewLogVis()
	sl := slot{u: geom.Pt(0, 0), v: geom.Pt(10, 0)}
	mk := func(transitAt geom.Point) model.Snapshot {
		return model.Snapshot{
			Self: model.RobotView{Pos: geom.Pt(5, 3), Color: model.Interior},
			Others: []model.RobotView{
				{Pos: geom.Pt(0, 0), Color: model.Corner},
				{Pos: geom.Pt(10, 0), Color: model.Corner},
				{Pos: transitAt, Color: model.Transit},
			},
		}
	}
	if !a.slotBusy(mk(geom.Pt(5, 2)), sl) {
		t.Error("nearby inbound lander not detected")
	}
	if a.slotBusy(mk(geom.Pt(5, 500)), sl) {
		t.Error("distant flight marked the slot busy")
	}
	if a.slotBusy(mk(geom.Pt(500, 2)), sl) {
		t.Error("lander outside the slab marked the slot busy")
	}
}
