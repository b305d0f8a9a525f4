package core

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
)

// slotUsableRef is the reference form of slotUsable: the open-segment
// test (StrictlyBetween) and the far-side test (Orient) as two separate
// predicates per robot. slotUsable answers both from one Orient, and
// from one cross product for robots outside its orientation band.
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

// bandFor is the band Compute passes slotUsable for a snapshot that
// holds self, the chord's endpoints u and v, and others.
func bandFor(self, u, v geom.Point, others []model.RobotView) float64 {
	pts := []geom.Point{self, u, v}
	for _, w := range others {
		pts = append(pts, w.Pos)
	}
	lo, hi := geom.BoundingBox(pts)
	return orientBand((hi.X - lo.X) + (hi.Y - lo.Y))
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
		got := a.slotUsable(c.self, u, v, c.others, bandFor(c.self, u, v, c.others))
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
		got := a.slotUsable(self, u, v, others, bandFor(self, u, v, others))
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

// FuzzSlotUsable holds slotUsable to the reference near its orientation
// band, which the integer grid above never enters. The chord runs from
// (ux, uy) to (vx, vy) and self sits at (sx, sy); every coordinate is
// then shifted by shift. Each 4-byte group of robots places one robot:
// a color, an anchor (near u, near v, on the chord's line at a
// parameter, or off the line), that parameter, and an offset of about
// 1e-10 to 1e-8 (or 0, or 1) along or across the line.
func FuzzSlotUsable(f *testing.F) {
	f.Add(0.0, 0.0, 10.0, 0.0, 5.0, 3.0, 0.0, []byte{3, 0, 0, 1, 3, 1, 0, 2, 3, 2, 128, 3, 3, 2, 64, 0x84})
	f.Add(0.0, 0.0, 10.0, 0.0, 5.0, 3.0, 1e6, []byte{1, 0, 0, 0x81, 1, 1, 0, 0x82, 2, 2, 100, 3, 4, 2, 200, 0x85})
	f.Add(-3.5, 2.25, 700.0, -41.0, 12.0, 80.0, 0.0, []byte{1, 0, 0, 2, 3, 1, 0, 0x83, 3, 2, 30, 0x81, 1, 2, 250, 4})
	f.Add(-3.5, 2.25, 700.0, -41.0, 12.0, 80.0, 1e6, []byte{2, 0, 0, 0x84, 3, 1, 0, 1, 3, 2, 90, 2, 6, 3, 7, 0x86})
	f.Add(1e-9, 0.0, 0.0, 1e-9, 5.0, 5.0, 0.0, []byte{3, 0, 0, 1, 3, 1, 0, 0x81, 3, 2, 128, 1})
	// A robot Eq to u across both axes, shifted by 1e6: the cross
	// product lies between Eps·span/2 and Eps·span, so a band of half the
	// width would skip its Eq test.
	f.Add(0.0, 75.0, -750.0, -72.0, 5.0, -71.0, 1e6, []byte("000C"))
	offsets := []float64{0, 1e-10, 5e-10, 9e-10, 1.1e-9, 2e-9, 1e-8, 1}
	f.Fuzz(func(t *testing.T, ux, uy, vx, vy, sx, sy, shift float64, robots []byte) {
		u, v := geom.Pt(ux+shift, uy+shift), geom.Pt(vx+shift, vy+shift)
		self := geom.Pt(sx+shift, sy+shift)
		d := v.Sub(u)
		normal := d.Perp().Unit()
		var others []model.RobotView
		for k := 0; k+4 <= len(robots) && len(others) < 16; k += 4 {
			b := robots[k : k+4]
			off := offsets[b[3]&7]
			if b[3]&0x80 != 0 {
				off = -off
			}
			var p geom.Point
			switch b[1] % 4 {
			case 0:
				p = u
			case 1:
				p = v
			default:
				p = u.Add(d.Mul(float64(b[2])/128 - 0.5))
			}
			if b[3]&0x40 != 0 {
				// Along the line, or diagonally across both axes.
				p = p.Add(geom.Pt(off, off))
			} else if b[1]%4 == 3 {
				p = p.Add(normal.Mul(1 + off))
			} else {
				p = p.Add(normal.Mul(off))
			}
			others = append(others, view(p, model.Color(b[0]%uint8(model.NumColors))))
		}
		a := NewLogVis()
		ref := slotUsableRef(self, u, v, others)
		if got := a.slotUsable(self, u, v, others, bandFor(self, u, v, others)); got != ref {
			t.Fatalf("slotUsable(%v, %v, %v, %v) = %v, reference %v", self, u, v, others, got, ref)
		}
		if got := a.slotUsable(self, u, v, others, math.Inf(1)); got != ref {
			t.Fatalf("slotUsable without band (%v, %v, %v, %v) = %v, reference %v", self, u, v, others, got, ref)
		}
	})
}

// TestSlotOrderMatchesSort pops every slot off slotOrder and requires
// the order slices.SortFunc(compareSlots) gives, on slot sets drawn from
// a few distances, chords and anchors, so equal-distance, equal-chord
// and identical slots all occur. Re-reading an already popped index, as
// computeInterior does for the nearest slot, returns the same slot.
func TestSlotOrderMatchesSort(t *testing.T) {
	dists := []float64{1, 2, 2, 3}
	chords := []float64{1, 1, 4}
	anchors := []geom.Point{geom.Pt(0, 0), geom.Pt(0, 1), geom.Pt(1, 0), geom.Pt(1, 1)}
	r := rand.New(rand.NewSource(5))
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(100)
		slots := make([]slot, n)
		for i := range slots {
			slots[i] = slot{
				u:     anchors[r.Intn(len(anchors))],
				v:     anchors[r.Intn(len(anchors))],
				dist:  dists[r.Intn(len(dists))],
				chord: chords[r.Intn(len(chords))],
			}
		}
		want := slices.Clone(slots)
		slices.SortFunc(want, compareSlots)
		order := slotOrder{slots: slots}
		order.heapify()
		stop := 1 + r.Intn(n) // pop a prefix, as a Compute does
		for i := 0; i < stop; i++ {
			if got := order.at(i); compareSlots(got, want[i]) != 0 {
				t.Fatalf("trial %d (n=%d): at(%d) = %+v, sorted %+v", trial, n, i, got, want[i])
			}
		}
		for i := 0; i < stop; i++ {
			if got := order.at(i); compareSlots(got, want[i]) != 0 {
				t.Fatalf("trial %d (n=%d): re-read at(%d) = %+v, sorted %+v", trial, n, i, got, want[i])
			}
		}
	}
}
