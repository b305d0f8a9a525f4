package core_test

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"luxvis/internal/baseline"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// memoRecorder wraps an algorithm and keeps a copy of every snapshot
// whose beacon list hashes into the sample, so whole groups of
// snapshots that share a beacon list are kept together. Pipelined
// Computes run on several workers, hence the mutex.
type memoRecorder struct {
	model.Algorithm
	rate  uint64
	mu    sync.Mutex
	snaps []model.Snapshot
}

func (r *memoRecorder) Compute(s model.Snapshot) model.Action {
	if hashPoints(core.BeaconsOf(s))%r.rate == 0 {
		r.mu.Lock()
		r.snaps = append(r.snaps, model.Snapshot{Self: s.Self, Others: slices.Clone(s.Others), World: s.World})
		r.mu.Unlock()
	}
	return r.Algorithm.Compute(s)
}

// hashPoints is FNV-1a over the coordinates' bits.
func hashPoints(pts []geom.Point) uint64 {
	h := uint64(14695981039346656037)
	for _, p := range pts {
		for _, v := range [2]float64{p.X, p.Y} {
			h ^= math.Float64bits(v)
			h *= 1099511628211
		}
	}
	return h
}

// compareSnapshots is a total order on snapshot content (the World
// aside), so the recorded sample can be put in an order that does not
// depend on when pipelined Computes ran.
func compareSnapshots(a, b model.Snapshot) int {
	view := func(a, b model.RobotView) int {
		return cmp.Or(
			cmp.Compare(math.Float64bits(a.Pos.X), math.Float64bits(b.Pos.X)),
			cmp.Compare(math.Float64bits(a.Pos.Y), math.Float64bits(b.Pos.Y)),
			cmp.Compare(a.Color, b.Color),
		)
	}
	if c := cmp.Or(view(a.Self, b.Self), cmp.Compare(len(a.Others), len(b.Others))); c != 0 {
		return c
	}
	for i := range a.Others {
		if c := view(a.Others[i], b.Others[i]); c != 0 {
			return c
		}
	}
	return 0
}

// fmtAction prints an action with every bit of its target.
func fmtAction(a model.Action) string {
	return fmt.Sprintf("%v to (%.17g, %.17g)", a.Color, a.Target.X, a.Target.Y)
}

func shuffle(rng *rand.Rand, s []model.Snapshot) {
	rng.Shuffle(len(s), func(i, j int) { s[i], s[j] = s[j], s[i] })
}

// sameAction reports whether two actions are bitwise equal.
func sameAction(a, b model.Action) bool {
	return a.Color == b.Color &&
		math.Float64bits(a.Target.X) == math.Float64bits(b.Target.X) &&
		math.Float64bits(a.Target.Y) == math.Float64bits(b.Target.Y)
}

// TestRingMemoEquivalence replays Computes recorded from engine runs
// (LogVis and SeqVis, which calls LogVis's Compute, × uniform, line,
// grid, spokes and clustered starts × N 48, which looks and computes
// inline, and N 192, pipelined at two procs or more) twice: on a fresh
// scratch without the snapshot's World, and with its World on a
// scratch warmed by a shuffled run of other snapshots, most of them
// sharing its beacon list. The two Actions must be bitwise equal, so a
// remembered beacon ring is exactly the ring a rebuild gives, whichever
// snapshot, World or run built it. The warm replays must hit the memo
// and miss it, or the test would prove nothing.
func TestRingMemoEquivalence(t *testing.T) {
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	}
	algos := []struct {
		name string
		new  func() model.Algorithm
	}{
		{"logvis", func() model.Algorithm { return core.NewLogVis() }},
		{"seqvis", func() model.Algorithm { return baseline.NewSeqVis() }},
	}
	fams := []config.Family{config.Uniform, config.Line, config.Grid, config.Spokes, config.Clustered}
	sizes := []int{48, 192}
	if testing.Short() || raceEnabled {
		fams = fams[:2] // the race detector slows the runs tenfold
	}
	var groups [][]model.Snapshot // snapshots sharing one beacon list
	for _, a := range algos {
		for _, fam := range fams {
			for _, n := range sizes {
				key := fmt.Sprintf("%s/%s/n%d", a.name, fam, n)
				rec := &memoRecorder{Algorithm: a.new(), rate: uint64(n / 6)}
				opt := sim.DefaultOptions(sched.NewAsyncRandom(), 1)
				opt.MaxEpochs = 40
				res, err := sim.Run(rec, config.Generate(fam, n, 1), opt)
				if err != nil {
					t.Fatalf("%s: %v", key, err)
				}
				if n >= 96 && res.Kernel.RowsComputed+res.Kernel.RowsReused != 0 {
					t.Errorf("%s: the engine's own rows served Looks, want a pipelined run", key)
				}
				slices.SortFunc(rec.snaps, compareSnapshots)
				byList := map[uint64]int{}
				first := len(groups)
				for _, s := range rec.snaps {
					h := hashPoints(core.BeaconsOf(s))
					g, ok := byList[h]
					if !ok {
						g = len(groups)
						byList[h] = g
						groups = append(groups, nil)
					}
					if len(groups[g]) < 6 {
						groups[g] = append(groups[g], s)
					}
				}
				t.Logf("%s: %d snapshots in %d beacon lists", key, len(rec.snaps), len(groups)-first)
			}
		}
	}

	a := core.NewLogVis()
	rng := rand.New(rand.NewSource(1))
	warm := core.NewScratch()
	var replays, hits, misses int
	for g, group := range groups {
		for i, s := range group {
			fresh := s
			fresh.World = nil
			want := a.ComputeOn(fresh, core.NewScratch())

			// Warm up on a shuffled run of snapshots from other groups,
			// enough to wrap the round-robin now and then, and then on
			// the group's other snapshots shuffled among a few more.
			var seq []model.Snapshot
			for range rng.Intn(12) {
				seq = append(seq, groups[rng.Intn(len(groups))]...)
			}
			shuffle(rng, seq)
			tail := len(seq)
			for j, o := range group {
				if j != i {
					seq = append(seq, o)
				}
			}
			for range rng.Intn(4) {
				other := groups[rng.Intn(len(groups))]
				seq = append(seq, other[rng.Intn(len(other))])
			}
			shuffle(rng, seq[tail:])
			for _, o := range seq {
				a.ComputeOn(o, warm)
			}
			// Only an interior robot's Compute reads the memo.
			pts := s.Points()
			interior := !geom.AllCollinear(pts) && geom.ConvexHull(pts).Classify(s.Self.Pos) == geom.HullInterior
			if interior && len(core.BeaconsOf(s)) >= 2 {
				if warm.RemembersRing(s) {
					hits++
				} else {
					misses++
				}
			}
			replays++
			if got := a.ComputeOn(s, warm); !sameAction(got, want) {
				t.Fatalf("group %d snapshot %d (self %v %v, %d others): warm scratch computes %s, fresh %s",
					g, i, s.Self.Pos, s.Self.Color, len(s.Others), fmtAction(got), fmtAction(want))
			}
		}
	}
	t.Logf("%d replays: %d interior robots hit the memo, %d miss it", replays, hits, misses)
	if hits == 0 || misses == 0 {
		t.Fatalf("%d memo hits and %d misses, want both", hits, misses)
	}
}

// TestRingMemoHandBuilt runs snapshots built to probe the memo's key
// through one scratch in turn, and requires each Action to be bitwise
// the one a fresh scratch computes: beacon lists that differ only in the
// sign of a zero coordinate, or by less than geom.Eps, or in one
// beacon, or in the order of two beacons; a self whose stale light is a
// beacon color; a collinear beacon set, whose beacon hull has two
// corners; and views with fewer than two beacons, which build no ring.
func TestRingMemoHandBuilt(t *testing.T) {
	negZero := math.Copysign(0, -1)
	// A square of Corner robots with Side robots on its bottom edge and
	// Interior robots inside. x0 is the X of the Side robot at the
	// bottom edge's middle.
	swarm := func(x0 float64) []model.RobotView {
		return []model.RobotView{
			{Pos: geom.Pt(-4, -4), Color: model.Corner},
			{Pos: geom.Pt(4, -4), Color: model.Corner},
			{Pos: geom.Pt(4, 4), Color: model.Corner},
			{Pos: geom.Pt(-4, 4), Color: model.Corner},
			{Pos: geom.Pt(x0, -4), Color: model.Side},
			{Pos: geom.Pt(2, -4), Color: model.Side},
			{Pos: geom.Pt(0.5, -3), Color: model.Interior},
			{Pos: geom.Pt(-1.5, 0.25), Color: model.Interior},
			{Pos: geom.Pt(1.25, 2), Color: model.Interior},
		}
	}
	// view is robot self's snapshot of all; with relights robot i.
	view := func(all []model.RobotView, self int) model.Snapshot {
		s := model.Snapshot{Self: all[self]}
		for j, o := range all {
			if j != self {
				s.Others = append(s.Others, o)
			}
		}
		return s
	}
	with := func(all []model.RobotView, i int, c model.Color) []model.RobotView {
		all = slices.Clone(all)
		all[i].Color = c
		return all
	}
	zero, neg := swarm(0), swarm(negZero)
	nudged := swarm(geom.Eps / 4)
	swapped := slices.Clone(zero)
	swapped[4], swapped[5] = swapped[5], swapped[4]
	moved := slices.Clone(zero)
	moved[5].Pos = geom.Pt(3, -4)
	line := []model.RobotView{
		{Pos: geom.Pt(-4, 0), Color: model.Corner},
		{Pos: geom.Pt(-1, 0), Color: model.Side},
		{Pos: geom.Pt(1.5, 0), Color: model.Side},
		{Pos: geom.Pt(4, 0), Color: model.Corner},
		{Pos: geom.Pt(-1, 1), Color: model.Interior},
		{Pos: geom.Pt(1, 2), Color: model.Interior},
		{Pos: geom.Pt(0.5, 0.5), Color: model.Interior},
		{Pos: geom.Pt(0, 6), Color: model.Interior},
	}
	cases := []struct {
		name string
		s    model.Snapshot
		// same names the earlier case whose beacon list this one
		// shares, "" for a list the memo must not hold yet.
		same string
	}{
		{"+0", view(zero, 6), ""},
		{"+0 other self", view(zero, 7), "+0"},
		{"-0", view(neg, 6), ""},
		{"+Eps/4", view(nudged, 6), ""},
		{"beacons swapped", view(swapped, 6), ""},
		{"beacon moved", view(moved, 6), ""},
		{"beacon-colored self", view(with(zero, 8, model.Corner), 8), "+0"},
		{"collinear beacons", view(line, 4), ""},
		{"collinear beacons other self", view(line, 5), "collinear beacons"},
		{"one beacon", view(with(with(with(line, 0, model.Interior), 1, model.Interior), 2, model.Interior), 5), ""},
		{"no beacon", view(with(with(with(with(line, 0, model.Interior), 1, model.Interior), 2, model.Interior), 3, model.Interior), 5), ""},
	}
	a := core.NewLogVis()
	warm := core.NewScratch()
	moves := 0
	for _, c := range cases {
		want := a.ComputeOn(c.s, core.NewScratch())
		if !want.IsStay(c.s.Self.Pos) {
			moves++
		}
		if got := warm.RemembersRing(c.s); got != (c.same != "") {
			t.Errorf("%s: memo holds its beacon list: %v, want %v", c.name, got, c.same != "")
		}
		if got := a.ComputeOn(c.s, warm); !sameAction(got, want) {
			t.Errorf("%s: warm scratch computes %s, fresh %s", c.name, fmtAction(got), fmtAction(want))
		}
	}
	if moves < len(cases)/2 {
		t.Errorf("only %d of %d hand-built robots move; the cases do not reach the slots", moves, len(cases))
	}
}
