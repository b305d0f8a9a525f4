package geom

import (
	"math/rand"
	"testing"
)

func TestVisibleBasic(t *testing.T) {
	// 0 --- 1 --- 2 on a line: 1 blocks 0 from 2.
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	if !Visible(pts, 0, 1) || !Visible(pts, 1, 2) {
		t.Error("adjacent points should see each other")
	}
	if Visible(pts, 0, 2) {
		t.Error("blocked pair reported visible")
	}
	if Visible(pts, 0, 0) {
		t.Error("self-visibility should be false")
	}
}

func TestVisibleCoincident(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(0, 0)}
	if Visible(pts, 0, 1) {
		t.Error("coincident points reported visible")
	}
}

func TestVisibleFromAndBlockers(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0), Pt(5, 5)}
	vis := VisibleFrom(pts, 0)
	want := []int{1, 3}
	if len(vis) != len(want) {
		t.Fatalf("VisibleFrom = %v", vis)
	}
	for i := range want {
		if vis[i] != want[i] {
			t.Fatalf("VisibleFrom = %v, want %v", vis, want)
		}
	}
	// Point 1 is the only blocker between 0 and 2.
	for k, p := range pts {
		if got := StrictlyBetween(pts[0], pts[2], p); got != (k == 1) {
			t.Errorf("StrictlyBetween(0, 2, point %d) = %v", k, got)
		}
	}
}

func TestCompleteVisibility(t *testing.T) {
	if !CompleteVisibility([]Point{Pt(0, 0), Pt(4, 0), Pt(2, 4)}) {
		t.Error("triangle not CV")
	}
	if CompleteVisibility([]Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}) {
		t.Error("line reported CV")
	}
	if CompleteVisibility([]Point{Pt(0, 0), Pt(0, 0)}) {
		t.Error("duplicate points reported CV")
	}
	if !CompleteVisibility([]Point{Pt(1, 1)}) || !CompleteVisibility(nil) {
		t.Error("trivial sets must be CV")
	}
	// Interior point in general position: CV without convex position.
	if !CompleteVisibility([]Point{Pt(0, 0), Pt(10, 0), Pt(5, 10), Pt(5, 3)}) {
		t.Error("general-position set with interior point should be CV")
	}
}

func TestVisibilityCountAndBlockedPairs(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0)}
	if got := visiblePairs(t, pts); got != 2 {
		t.Errorf("visible pairs = %d", got)
	}
	if Visible(pts, 0, 2) || !Visible(pts, 0, 1) || !Visible(pts, 1, 2) {
		t.Error("want (0, 2) as the only blocked pair")
	}
}

// visiblePairs counts the mutually visible pairs of pts with the Visible
// oracle and fails t unless a 1-worker Snapshot's rows count the same.
func visiblePairs(t *testing.T, pts []Point) int {
	t.Helper()
	kern := NewKernel(1)
	defer kern.Close()
	snap := kern.NewSnapshot()
	snap.Reset(pts)
	oracle, rows := 0, 0
	for i := range pts {
		rows += len(snap.Row(i))
		for j := i + 1; j < len(pts); j++ {
			if Visible(pts, i, j) {
				oracle++
			}
		}
	}
	if rows != 2*oracle {
		t.Fatalf("snapshot rows hold %d entries, want twice the %d visible pairs", rows, oracle)
	}
	return oracle
}

func TestPathClear(t *testing.T) {
	obstacles := []Point{Pt(5, 0), Pt(3, 2)}
	if PathClear(Pt(0, 0), Pt(10, 0), obstacles, 0) {
		t.Error("path through obstacle reported clear")
	}
	if !PathClear(Pt(0, 0), Pt(10, 5), obstacles, 0) {
		t.Error("clear path reported blocked")
	}
	// Margin widens the corridor.
	if PathClear(Pt(0, 0), Pt(10, 4), obstacles, 1.5) {
		t.Error("margin violation not detected")
	}
	// Destination occupied.
	if PathClear(Pt(0, 0), Pt(5, 0), obstacles, 0) {
		t.Error("occupied destination reported clear")
	}
	// Own position in the obstacle list is ignored.
	if !PathClear(Pt(3, 2), Pt(3, 5), obstacles, 0) {
		t.Error("own position blocked the path")
	}
}

func TestCompleteVisibilityFastAgreesWithNaive(t *testing.T) {
	kern := NewKernel(1)
	defer kern.Close()
	rng := rand.New(rand.NewSource(9))
	agree := 0
	for trial := 0; trial < 300; trial++ {
		n := 3 + rng.Intn(20)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPt(rng)
		}
		// Half the trials get a forced collinear triple.
		if trial%2 == 0 && n >= 3 {
			pts[2] = pts[0].Mid(pts[1])
		}
		naive := CompleteVisibility(pts)
		fast := kern.CompleteVisibilityFast(pts)
		if naive != fast {
			t.Fatalf("disagreement on %v: naive=%v fast=%v", pts, naive, fast)
		}
		agree++
	}
	if agree == 0 {
		t.Fatal("no trials ran")
	}
}

func TestVisibleSetFastAgreesWithNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	for trial := 0; trial < 200; trial++ {
		n := 2 + rng.Intn(25)
		pts := make([]Point, n)
		for i := range pts {
			pts[i] = randPt(rng)
		}
		// Force collinear structure in half the trials.
		if trial%2 == 0 && n >= 4 {
			pts[1] = pts[0].Lerp(pts[2], 0.5)
			pts[3] = pts[0].Lerp(pts[2], 2)
		}
		for i := 0; i < n; i++ {
			fast := VisibleSetFast(pts, i)
			naive := VisibleFrom(pts, i)
			if len(fast) != len(naive) {
				t.Fatalf("trial %d robot %d: fast=%v naive=%v pts=%v", trial, i, fast, naive, pts)
			}
			for k := range fast {
				if fast[k] != naive[k] {
					t.Fatalf("trial %d robot %d: fast=%v naive=%v", trial, i, fast, naive)
				}
			}
		}
	}
}

func TestCollinearTriples(t *testing.T) {
	pts := []Point{Pt(0, 0), Pt(5, 0), Pt(10, 0), Pt(3, 7)}
	triples := collectCandidates(pts, 0)
	if len(triples) == 0 {
		t.Fatal("collinear triple not detected")
	}
	// The blocked configuration must be detected from the blocker's
	// perspective: some triple must name point 1 (the middle).
	found := false
	for _, tr := range triples {
		if tr.Blocker == 1 || tr.A == 1 || tr.B == 1 {
			found = true
		}
	}
	if !found {
		t.Errorf("middle point absent from triples %v", triples)
	}
	if got := collectCandidates([]Point{Pt(0, 0), Pt(5, 0), Pt(5, 5)}, 0); len(got) != 0 {
		t.Errorf("triangle produced triples %v", got)
	}
	// A true return from visit stops the scan at that candidate.
	calls := 0
	if !CollinearCandidates(pts, 0, func(Triple) bool { calls++; return true }) || calls != 1 {
		t.Errorf("stopping visit: %d calls, want the scan to stop after 1", calls)
	}
}

// collectCandidates returns every CollinearCandidates triple.
func collectCandidates(pts []Point, tol float64) []Triple {
	var out []Triple
	CollinearCandidates(pts, tol, func(t Triple) bool {
		out = append(out, t)
		return false
	})
	return out
}

// The line-visibility lemma the algorithm relies on: in a non-collinear
// swarm, every robot sees at least one robot off any line through it.
func TestOffLineVisibilityLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 100; trial++ {
		n := 4 + rng.Intn(20)
		pts := make([]Point, n)
		// Most robots on a line, a few off it.
		for i := range pts {
			x := rng.Float64() * 100
			pts[i] = Pt(x, x*0.5)
		}
		pts[n-1] = Pt(rng.Float64()*100, rng.Float64()*100+200)
		for i := range pts {
			vis := VisibleSetFast(pts, i)
			allCollinear := true
			viewPts := []Point{pts[i]}
			for _, j := range vis {
				viewPts = append(viewPts, pts[j])
			}
			allCollinear = AllCollinear(viewPts)
			if allCollinear {
				t.Fatalf("robot %d sees an all-collinear view in a non-collinear swarm", i)
			}
		}
	}
}
