package core

import (
	"math/rand"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// slotUsableRef is the reference form of slotUsable: the open-segment
// test (StrictlyBetween) and the far-side test (Orient) as two separate
// predicates per robot. slotUsable answers both from one Orient.
func slotUsableRef(self, u, v geom.Point, others []model.RobotView) bool {
	mySide := geom.Orient(u, v, self)
	if mySide == geom.Collinear {
		return false
	}
	for _, w := range others {
		if w.Pos.Eq(u) || w.Pos.Eq(v) {
			continue
		}
		if geom.StrictlyBetween(u, v, w.Pos) {
			return false
		}
		if w.Color == model.Transit || w.Color == model.Beacon {
			continue
		}
		if o := geom.Orient(u, v, w.Pos); o != geom.Collinear && o != mySide {
			return false
		}
	}
	return true
}

func TestSlotUsableCases(t *testing.T) {
	u, v := geom.Pt(0, 0), geom.Pt(10, 0)
	above, below := geom.Pt(5, 3), geom.Pt(5, -3)
	cases := []struct {
		name   string
		self   geom.Point
		others []model.RobotView
		want   bool
	}{
		{"empty", above, nil, true},
		{"self on chord line", geom.Pt(5, 0), nil, false},
		{"self on chord line outside segment", geom.Pt(15, 0), nil, false},
		{"robot inside chord", above, []model.RobotView{view(geom.Pt(4, 0), model.Corner)}, false},
		{"robot on line beyond v", above, []model.RobotView{view(geom.Pt(12, 0), model.Corner)}, true},
		{"robot on line before u", above, []model.RobotView{view(geom.Pt(-3, 0), model.Interior)}, true},
		{"transit inside chord", above, []model.RobotView{view(geom.Pt(6, 0), model.Transit)}, false},
		{"robot at u", above, []model.RobotView{view(u, model.Corner)}, true},
		{"robot Eq to v", above, []model.RobotView{view(geom.Pt(10+geom.Eps/2, geom.Eps/2), model.Corner)}, true},
		{"settled robot on far side", above, []model.RobotView{view(below, model.Interior)}, false},
		{"settled robot on own side", above, []model.RobotView{view(geom.Pt(2, 1), model.Corner)}, true},
		{"transit on far side", above, []model.RobotView{view(below, model.Transit)}, true},
		{"beacon on far side", above, []model.RobotView{view(below, model.Beacon)}, true},
		{"self below, robot above", below, []model.RobotView{view(above, model.Side)}, false},
		{"beacon far side then settled inside", above, []model.RobotView{
			view(below, model.Beacon), view(geom.Pt(7, 0), model.Corner)}, false},
	}
	a := NewLogVis()
	for _, c := range cases {
		got := a.slotUsable(c.self, u, v, c.others)
		if ref := slotUsableRef(c.self, u, v, c.others); got != ref || got != c.want {
			t.Errorf("%s: slotUsable = %v, reference %v, want %v", c.name, got, ref, c.want)
		}
	}
}

// TestSlotUsableMatchesReference compares slotUsable with the reference
// on random snapshots over a small integer grid, where robots on the
// chord line, at its endpoints and collinear selves are common.
func TestSlotUsableMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	grid := func() geom.Point {
		return geom.Pt(float64(rng.Intn(9)-4), float64(rng.Intn(9)-4))
	}
	a := NewLogVis()
	usable := 0
	for i := 0; i < 20000; i++ {
		u, v := grid(), grid()
		if u.Eq(v) {
			continue
		}
		self := grid()
		others := make([]model.RobotView, rng.Intn(6))
		for k := range others {
			others[k] = view(grid(), model.Color(rng.Intn(model.NumColors)))
		}
		got := a.slotUsable(self, u, v, others)
		if ref := slotUsableRef(self, u, v, others); got != ref {
			t.Fatalf("slotUsable(%v, %v, %v, %v) = %v, reference %v", self, u, v, others, got, ref)
		}
		if got {
			usable++
		}
	}
	if usable == 0 {
		t.Fatal("no random snapshot had a usable slot; the comparison covers only rejections")
	}
}
