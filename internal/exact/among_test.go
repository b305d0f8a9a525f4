package exact

import (
	"math/rand"
	"testing"

	"luxvis/internal/geom"
)

// bruteAmong is the O(n³) reference: selected points pairwise distinct
// from everything and mutually visible with all points as obstructions.
func bruteAmong(pts []geom.Point, selected []bool) bool {
	eps := FromFloats(pts)
	for i := range eps {
		if !selected[i] {
			continue
		}
		for j := range eps {
			if j != i && eps[i].Eq(eps[j]) {
				return false
			}
		}
	}
	for i := range eps {
		if !selected[i] {
			continue
		}
		for j := i + 1; j < len(eps); j++ {
			if !selected[j] {
				continue
			}
			for k := range eps {
				if k == i || k == j {
					continue
				}
				if StrictlyBetween(eps[i], eps[j], eps[k]) {
					return false
				}
			}
		}
	}
	return true
}

func TestCompleteVisibilityAmong(t *testing.T) {
	line := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}

	cases := []struct {
		name     string
		pts      []geom.Point
		selected []bool
		want     bool
	}{
		{"blocked pair across unselected middle", line, []bool{true, false, true}, false},
		{"adjacent pair, third beyond not between", line, []bool{true, true, false}, true},
		{"middle plus end, other end beyond", line, []bool{false, true, true}, true},
		{"single survivor", line, []bool{false, true, false}, true},
		{"no survivors", line, []bool{false, false, false}, true},
		{"survivor coincident with unselected",
			[]geom.Point{geom.Pt(0, 0), geom.Pt(0, 0), geom.Pt(2, 3)},
			[]bool{true, false, true}, false},
		{"unselected pair coincident, survivors convex",
			[]geom.Point{geom.Pt(0, 0), geom.Pt(5, 5), geom.Pt(5, 5), geom.Pt(1, 0), geom.Pt(0, 1)},
			[]bool{true, false, false, true, true}, true},
		{"square all selected",
			[]geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)},
			[]bool{true, true, true, true}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := CompleteVisibilityAmong(tc.pts, tc.selected); got != tc.want {
				t.Fatalf("CompleteVisibilityAmong = %v, want %v", got, tc.want)
			}
			if got := bruteAmong(tc.pts, tc.selected); got != tc.want {
				t.Fatalf("brute reference disagrees with the case's want=%v", tc.want)
			}
		})
	}

	// Nil mask falls back to the full-swarm hybrid predicate.
	if CompleteVisibilityAmong(line, nil) != CompleteVisibilityHybrid(line) {
		t.Fatalf("nil mask must match CompleteVisibilityHybrid")
	}
}

// TestCompleteVisibilityAmongDifferential cross-validates the filtered
// predicate against the brute-force exact reference on adversarial
// random configurations: small integer grids force many exact
// collinearities and coincidences.
func TestCompleteVisibilityAmongDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(20260807))
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(8)
		pts := make([]geom.Point, n)
		for i := range pts {
			pts[i] = geom.Pt(float64(rng.Intn(5)), float64(rng.Intn(5)))
		}
		selected := make([]bool, n)
		for i := range selected {
			selected[i] = rng.Intn(4) != 0
		}
		got := CompleteVisibilityAmong(pts, selected)
		want := bruteAmong(pts, selected)
		if got != want {
			t.Fatalf("trial %d: pts=%v selected=%v: filtered=%v brute=%v",
				trial, pts, selected, got, want)
		}
	}
	// Cocircular sets, exact chord triples and signed-zero duplicates,
	// under the full mask, a random three-quarter mask and a mask that
	// leaves out the last point (the planted midpoint or duplicate).
	for _, c := range degenerateConfigs() {
		n := len(c.pts)
		masks := [][]bool{make([]bool, n), make([]bool, n), make([]bool, n)}
		for i := 0; i < n; i++ {
			masks[0][i] = true
			masks[1][i] = rng.Intn(4) != 0
			masks[2][i] = i < n-1
		}
		for k, selected := range masks {
			got := CompleteVisibilityAmong(c.pts, selected)
			want := bruteAmong(c.pts, selected)
			if got != want {
				t.Fatalf("%s, mask %d: filtered=%v brute=%v", c.name, k, got, want)
			}
			if k == 0 && c.blocked && want {
				t.Fatalf("%s: oracle reports CV for a configuration built to fail it", c.name)
			}
		}
	}
}
