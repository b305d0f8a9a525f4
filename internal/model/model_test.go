package model

import (
	"math"
	"slices"
	"sync"
	"testing"
	"unsafe"

	"luxvis/internal/geom"
)

func TestColorString(t *testing.T) {
	cases := map[Color]string{
		Off: "off", Line: "line", Corner: "corner", Side: "side",
		Interior: "interior", Transit: "transit", Beacon: "beacon", Done: "done",
	}
	for c, want := range cases {
		if got := c.String(); got != want {
			t.Errorf("Color(%d).String() = %q, want %q", c, got, want)
		}
	}
	if got := Color(200).String(); got != "color(200)" {
		t.Errorf("out-of-range color = %q", got)
	}
}

func snap(self geom.Point, others ...RobotView) Snapshot {
	return Snapshot{Self: RobotView{Pos: self, Color: Off}, Others: others}
}

func TestSnapshotPoints(t *testing.T) {
	s := snap(geom.Pt(1, 1),
		RobotView{Pos: geom.Pt(2, 2), Color: Corner},
		RobotView{Pos: geom.Pt(3, 3), Color: Side},
	)
	pts := s.Points()
	if len(pts) != 3 || !pts[0].Eq(geom.Pt(1, 1)) || !pts[2].Eq(geom.Pt(3, 3)) {
		t.Errorf("Points = %v", pts)
	}
	// Returned slices are fresh: mutating them must not affect the
	// snapshot.
	pts[0] = geom.Pt(99, 99)
	if !s.Self.Pos.Eq(geom.Pt(1, 1)) {
		t.Error("Points aliases the snapshot")
	}
}

func TestCountColorAndAllOthersColored(t *testing.T) {
	s := snap(geom.Pt(0, 0),
		RobotView{Pos: geom.Pt(1, 0), Color: Corner},
		RobotView{Pos: geom.Pt(2, 0), Color: Corner},
		RobotView{Pos: geom.Pt(3, 0), Color: Done},
	)
	if got := s.CountColor(Corner); got != 2 {
		t.Errorf("CountColor = %d", got)
	}
	if got := s.CountColor(Interior); got != 0 {
		t.Errorf("CountColor(Interior) = %d", got)
	}
	if !s.AllOthersColored(Corner, Done) {
		t.Error("AllOthersColored(Corner, Done) = false")
	}
	if s.AllOthersColored(Corner) {
		t.Error("AllOthersColored(Corner) = true despite Done robot")
	}
	if !snap(geom.Pt(0, 0)).AllOthersColored(Corner) {
		t.Error("vacuous AllOthersColored = false")
	}
}

func TestNearest(t *testing.T) {
	s := snap(geom.Pt(0, 0),
		RobotView{Pos: geom.Pt(5, 0), Color: Off},
		RobotView{Pos: geom.Pt(2, 0), Color: Corner},
		RobotView{Pos: geom.Pt(9, 9), Color: Off},
	)
	v, ok := s.Nearest()
	if !ok || !v.Pos.Eq(geom.Pt(2, 0)) {
		t.Errorf("Nearest = %v, %v", v, ok)
	}
	if got := s.NearestDist(); got != 2 {
		t.Errorf("NearestDist = %v", got)
	}
	empty := snap(geom.Pt(0, 0))
	if _, ok := empty.Nearest(); ok {
		t.Error("Nearest on empty view succeeded")
	}
	if got := empty.NearestDist(); !math.IsInf(got, 1) {
		t.Errorf("NearestDist on empty view = %v", got)
	}
}

func TestActions(t *testing.T) {
	p := geom.Pt(1, 2)
	stay := Stay(p, Corner)
	if !stay.IsStay(p) || stay.Color != Corner {
		t.Errorf("Stay = %+v", stay)
	}
	mv := MoveTo(geom.Pt(5, 5), Transit)
	if mv.IsStay(p) {
		t.Error("MoveTo reported as stay")
	}
	if !mv.Target.Eq(geom.Pt(5, 5)) {
		t.Errorf("MoveTo target = %v", mv.Target)
	}
}

// TestWorldHull: a nil World computes ConvexHull and AllCollinear; a
// shared World builds each once and hands every later caller the same
// corners and the same answer, whatever order their points come in.
func TestWorldHull(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(2, 2)}
	want := geom.ConvexHull(pts).Corners
	var none *World
	if got := none.Hull(pts).Corners; !slices.Equal(got, want) {
		t.Fatalf("nil World hull %v, want %v", got, want)
	}
	w := new(World)
	first := w.Hull(pts).Corners
	if !slices.Equal(first, want) {
		t.Fatalf("World hull %v, want %v", first, want)
	}
	reordered := []geom.Point{pts[4], pts[2], pts[0], pts[3], pts[1]}
	if again := w.Hull(reordered).Corners; &again[0] != &first[0] {
		t.Fatal("a second caller of one World got a rebuilt hull")
	}

	line := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 1), geom.Pt(3, 3)}
	if !none.AllCollinear(line) || none.AllCollinear(pts) {
		t.Fatal("nil World AllCollinear disagrees with geom.AllCollinear")
	}
	if w.AllCollinear(reordered) || w.AllCollinear(pts) {
		t.Fatal("World AllCollinear of a square with its center, want false")
	}
	// The answer is memoized: a later caller reads it even for points
	// that would answer differently, which a sharer never passes.
	if w.AllCollinear(line) {
		t.Fatal("a second caller of one World got a recomputed AllCollinear")
	}
	wl := new(World)
	if !wl.AllCollinear(line) || !wl.AllCollinear(pts) {
		t.Fatal("World AllCollinear of a line, want true for every later caller")
	}
}

// TestWorldBounds: a nil World computes BoundingBox; a shared World
// computes the box once and hands it to every later caller, which is
// sound because BoundingBox answers bit for bit the same for every
// order of one multiset, signed zeros and NaN included. Concurrent
// first callers (run under -race) all read that box too.
func TestWorldBounds(t *testing.T) {
	negZero := math.Copysign(0, -1)
	sets := map[string][]geom.Point{
		"square": {geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4), geom.Pt(2, 2)},
		"signed zeros": {
			geom.Pt(0, negZero), geom.Pt(negZero, 0), geom.Pt(0, 0),
			geom.Pt(negZero, negZero), geom.Pt(-1e-300, 1e-300),
		},
		"NaN":        {geom.Pt(1, 2), geom.Pt(math.NaN(), 0), geom.Pt(-3, math.NaN()), geom.Pt(0, negZero)},
		"infinities": {geom.Pt(math.Inf(-1), math.NaN()), geom.Pt(math.NaN(), math.Inf(1)), geom.Pt(0, 0)},
	}
	bits := func(lo, hi geom.Point) [4]uint64 {
		return [4]uint64{
			math.Float64bits(lo.X), math.Float64bits(lo.Y),
			math.Float64bits(hi.X), math.Float64bits(hi.Y),
		}
	}
	for name, pts := range sets {
		want := bits(geom.BoundingBox(pts))
		w := new(World)
		var none *World
		var mu sync.Mutex
		var wg sync.WaitGroup
		forEachPermutation(slices.Clone(pts), func(perm []geom.Point) {
			if got := bits(geom.BoundingBox(perm)); got != want {
				t.Fatalf("%s: BoundingBox of %v = %x, want %x", name, perm, got, want)
			}
			if got := bits(none.Bounds(perm)); got != want {
				t.Fatalf("%s: nil World Bounds of %v = %x, want %x", name, perm, got, want)
			}
			p := slices.Clone(perm)
			wg.Add(1)
			go func() {
				defer wg.Done()
				got := bits(w.Bounds(p))
				mu.Lock()
				defer mu.Unlock()
				if got != want {
					t.Errorf("%s: shared World Bounds of %v = %x, want %x", name, p, got, want)
				}
			}()
		})
		wg.Wait()
	}
	// The box is memoized: a later caller reads it even for points
	// that would answer differently, which a sharer never passes.
	w := new(World)
	w.Bounds([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 1)})
	if lo, hi := w.Bounds([]geom.Point{geom.Pt(5, 5)}); lo != geom.Pt(0, 0) || hi != geom.Pt(1, 1) {
		t.Fatalf("a second caller of one World got a recomputed box [%v, %v]", lo, hi)
	}
}

// forEachPermutation calls f with every ordering of pts (Heap's
// algorithm), reusing one slice.
func forEachPermutation(pts []geom.Point, f func([]geom.Point)) {
	var gen func(k int)
	gen = func(k int) {
		if k <= 1 {
			f(pts)
			return
		}
		for i := 0; i < k-1; i++ {
			gen(k - 1)
			if k%2 == 0 {
				pts[i], pts[k-1] = pts[k-1], pts[i]
			} else {
				pts[0], pts[k-1] = pts[k-1], pts[0]
			}
		}
		gen(k - 1)
	}
	gen(len(pts))
}

// TestWorldSize pins a World to 48 bytes, one allocation size class:
// the engine allocates one per position state, and a second Once for
// the bounds would double it.
func TestWorldSize(t *testing.T) {
	if got := unsafe.Sizeof(World{}); got != 48 {
		t.Fatalf("model.World is %d bytes, want 48", got)
	}
}
