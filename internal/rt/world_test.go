package rt

import (
	"math/rand"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/sim"
)

// TestWorldLookTracksMoves drives robots through moveLocked in the move
// loop's sub-steps and checks, after every position write, that every
// robot's Look equals the VisibleFrom oracle over the current positions.
// A write that bypassed the world's visibility snapshot would surface
// here as a stale row.
func TestWorldLookTracksMoves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	// A 4x4 lattice: rows, columns and diagonals make many blocked pairs
	// that moves open and close.
	var start []geom.Point
	for x := 0; x < 4; x++ {
		for y := 0; y < 4; y++ {
			start = append(start, geom.Pt(float64(x), float64(y)))
		}
	}
	n := len(start)
	kern := geom.NewKernel(1)
	defer kern.Close()
	w := newWorld(kern, start)

	const subSteps = 3
	for move := 0; move < 200; move++ {
		id := rng.Intn(n)
		var target geom.Point
		switch rng.Intn(3) {
		case 0: // onto the segment between two others: blocks them
			a, b := rng.Intn(n), rng.Intn(n)
			target = w.pos[a].Lerp(w.pos[b], 0.5)
		case 1: // a lattice point, possibly on a row or diagonal
			target = geom.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))
		default:
			target = geom.Pt(rng.Float64()*4, rng.Float64()*4)
		}
		from := w.pos[id]
		for s := 1; s <= subSteps; s++ {
			seq := w.changeSeq
			w.moveLocked(id, from.Lerp(target, float64(s)/subSteps))
			if w.changeSeq != seq+1 {
				t.Fatalf("move %d: changeSeq %d -> %d, want one bump", move, seq, w.changeSeq)
			}
			for r := 0; r < n; r++ {
				snap := sim.Look(nil, r, 0, w.vis.Row(r), false, w.pos, w.col, sim.Jitter{}, nil)
				want := geom.VisibleFrom(w.pos, r)
				if snap.Self.Pos != w.pos[r] || len(snap.Others) != len(want) {
					t.Fatalf("move %d step %d robot %d: Look sees %d robots from %v, oracle %v from %v",
						move, s, r, len(snap.Others), snap.Self.Pos, want, w.pos[r])
				}
				for k, j := range want {
					if snap.Others[k].Pos != w.pos[j] {
						t.Fatalf("move %d step %d robot %d: Look entry %d at %v, oracle robot %d at %v",
							move, s, r, k, snap.Others[k].Pos, j, w.pos[j])
					}
				}
			}
		}
	}
}
