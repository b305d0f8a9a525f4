package geom_test

// FuzzSnapshotUpdate fuzzes the rows a Look sees after a position write,
// sharing the int8-grid input format of FuzzVisibleAgainstNaive (its
// checked-in corpus seeds this target directly): the last three bytes
// pick the moving robot and its destination, the rest decodes the start
// configuration. One kernel builds every row before and after the move
// into reused per-robot buffers, as the engine does; each row must
// agree with a from-scratch VisibleSetFast and with the O(n²)
// reference.

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"luxvis/internal/geom"
)

func FuzzSnapshotUpdate(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 2, 0, 3, 0, 1, 4, 0})           // chain, robot 1 stays on the line
	f.Add([]byte{0, 0, 10, 0, 5, 0, 5, 5, 3, 5, 255})        // blocker flips sides
	f.Add([]byte{0, 0, 0, 0, 1, 1, 0, 7, 7})                 // coincident pair separates
	f.Add([]byte{251, 0, 5, 0, 0, 0, 0, 5, 0, 251, 2, 3, 3}) // spokes, center leaves
	f.Add([]byte{128, 128, 127, 127, 0, 0, 1, 128, 127})     // extreme corners
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 7 {
			return
		}
		mv := data[len(data)-3:]
		pts := decodePoints(data[:len(data)-3])
		if len(pts) < 2 {
			return
		}
		kern := geom.NewKernel(2)
		defer kern.Close()
		rows := checkRows(t, kern, nil, pts, "before the move")
		m := int(mv[0]) % len(pts)
		np := geom.Pt(float64(int8(mv[1])), float64(int8(mv[2])))
		cur := slices.Clone(pts)
		cur[m] = np
		rows = checkRows(t, kern, rows, cur, "after the move")
		for r := range cur {
			if ref := geom.VisibleFrom(cur, r); !slices.Equal(rows[r], ref) {
				t.Fatalf("after moving %d to %v: VisibleRow(%d) = %v, reference VisibleFrom = %v (pts=%v)",
					m, np, r, rows[r], ref, cur)
			}
		}
	})
}

// FuzzClearAround holds Kernel.ClearAround to the promise the engine
// builds on: start from a completely visible set, move one point, and
// if ClearAround clears the moved point then CompleteVisibilityFast must
// hold and every VisibleSetFast row must be full. Starts are int8 grids
// (the FuzzVisibleAgainstNaive format, capped at 24 points) or uniform
// sets of 3 to 64 points at scales 1e-3 to 1e6. The move lands near the
// line through two other points a and b, off it by a fuzzed power-of-two
// fraction of the scale, so the target sweeps the predicates' tolerance
// band. With a = b it lands that close to a instead, where m's fold
// tolerance becomes undefined; when a or b is m itself the point jumps
// by a fuzzed offset. A hole found here makes ClearAround more
// conservative, never this target weaker.
func FuzzClearAround(f *testing.F) {
	f.Add([]byte{0, 0, 10, 0, 5, 5, 0, 7}, false, uint8(0), int64(0), uint8(0), uint8(3), uint8(0), uint8(1), int8(16), int8(0))
	f.Add([]byte{0, 0, 10, 0, 5, 5, 0, 7}, false, uint8(0), int64(0), uint8(0), uint8(3), uint8(0), uint8(1), int8(16), int8(40))
	f.Add([]byte(nil), true, uint8(3), int64(1), uint8(40), uint8(5), uint8(7), uint8(9), int8(-20), int8(45))
	f.Add([]byte(nil), true, uint8(9), int64(2), uint8(61), uint8(0), uint8(1), uint8(2), int8(64), int8(-30))
	f.Add([]byte(nil), true, uint8(0), int64(3), uint8(12), uint8(2), uint8(2), uint8(2), int8(5), int8(-5))
	f.Fuzz(func(t *testing.T, grid []byte, uniform bool, scaleExp uint8, seed int64, size, mover, a, b uint8, along, off int8) {
		var pts []geom.Point
		scale := 16.0
		if uniform {
			scale = math.Pow(10, float64(int(scaleExp%10)-3))
			rng := rand.New(rand.NewSource(seed))
			pts = make([]geom.Point, 3+int(size)%62)
			for i := range pts {
				pts[i] = geom.Pt(rng.Float64()*scale, rng.Float64()*scale)
			}
		} else {
			pts = decodePoints(grid)
		}
		n := len(pts)
		if n < 3 {
			return
		}
		kern := geom.NewKernel(1)
		defer kern.Close()
		if !kern.CompleteVisibilityFast(pts) {
			return
		}
		m, ia, ib := int(mover)%n, int(a)%n, int(b)%n
		cur := slices.Clone(pts)
		h := scale * math.Ldexp(1, -(int(math.Abs(float64(off)))%64))
		switch {
		case ia == m || ib == m:
			cur[m] = pts[m].Add(geom.Pt(float64(along), float64(off)).Mul(scale / 128))
		case ia == ib:
			// Near a: h away in the direction along·π/64.
			s, c := math.Sincos(float64(along) * math.Pi / 64)
			cur[m] = pts[ia].Add(geom.Pt(c, s).Mul(h))
		default:
			// Near the line through a and b: a point on it at parameter
			// along/32, pushed off it by ±h (on it for off = 0).
			pa, pb := pts[ia], pts[ib]
			d := pb.Sub(pa)
			p := pa.Add(d.Mul(float64(along) / 32))
			if off != 0 {
				nrm := geom.Pt(-d.Y, d.X).Mul(1 / d.Norm())
				if off < 0 {
					h = -h
				}
				p = p.Add(nrm.Mul(h))
			}
			cur[m] = p
		}
		if !cur[m].IsFinite() || !kern.ClearAround(cur, m) {
			return
		}
		if !kern.CompleteVisibilityFast(cur) {
			t.Fatalf("ClearAround(%d) holds after moving %v to %v, but CompleteVisibilityFast fails (pts=%v)", m, pts[m], cur[m], cur)
		}
		for r := range cur {
			if row := geom.VisibleSetFast(cur, r); len(row) != n-1 {
				t.Fatalf("ClearAround(%d) holds after moving %v to %v, but row %d sees %d of %d (pts=%v)", m, pts[m], cur[m], r, len(row), n-1, cur)
			}
		}
	})
}
