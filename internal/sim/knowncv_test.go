package sim

import (
	"fmt"
	"math"
	"sync"
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// viewChecker wraps an algorithm and checks every snapshot that holds
// all n-1 other robots: seen from Self, VisibleSetFast over Self and
// Others must return every one of them. A Look taken while the engine
// knows the world to be completely visible holds all the others without
// a row, so a wrong belief shows up here as a robot a full view holds
// but cannot see.
type viewChecker struct {
	model.Algorithm
	n int

	mu       sync.Mutex
	computes int // every Compute
	full     int // Computes of a snapshot holding all n-1 others
	errs     []string
}

func (v *viewChecker) Compute(s model.Snapshot) model.Action {
	full := len(s.Others) == v.n-1
	seen := 0
	if full {
		seen = len(geom.VisibleSetFast(s.Points(), 0))
	}
	v.mu.Lock()
	v.computes++
	if full {
		v.full++
		if seen != v.n-1 && len(v.errs) < 5 {
			v.errs = append(v.errs, fmt.Sprintf("a full view from %v sees %d of its %d robots", s.Self.Pos, seen, v.n-1))
		}
	}
	v.mu.Unlock()
	return v.Algorithm.Compute(s)
}

// bandBreaker breaks Complete Visibility once, after the first epoch,
// with a triple that only some anchors find collinear. Every robot
// first shows Corner. Then the least robot, once its full view shows
// every robot on Corner, moves next to the midpoint of the two robots
// farthest apart in its view, a and b, and shows Done; everyone else
// stays. The landing point is off the line ab by 0.75·Eps·|b-a|₁/|b-a|,
// so the doubled triangle area is 0.75·Eps·|b-a|₁. Orient anchored at a
// or b allows Eps·|b-a|₁ and finds the triple collinear, so the landed
// robot blocks b from a; anchored at the landed robot it allows about
// half that and does not.
type bandBreaker struct{}

func (bandBreaker) Name() string { return "band-breaker" }

func (bandBreaker) Palette() []model.Color {
	return []model.Color{model.Off, model.Corner, model.Done}
}

func (bandBreaker) Compute(s model.Snapshot) model.Action {
	self := s.Self.Pos
	if s.Self.Color == model.Off {
		return model.Stay(self, model.Corner)
	}
	if s.Self.Color != model.Corner || len(s.Others) < 2 {
		return model.Stay(self, s.Self.Color)
	}
	for _, o := range s.Others {
		if o.Color != model.Corner || o.Pos.Less(self) {
			return model.Stay(self, s.Self.Color)
		}
	}
	var a, b geom.Point
	far := -1.0
	for i, p := range s.Others {
		for _, q := range s.Others[i+1:] {
			if d := q.Pos.Sub(p.Pos); math.Abs(d.X)+math.Abs(d.Y) > far {
				a, b, far = p.Pos, q.Pos, math.Abs(d.X)+math.Abs(d.Y)
			}
		}
	}
	d := b.Sub(a)
	nrm := geom.Pt(-d.Y, d.X).Mul(1 / d.Norm())
	h := 0.75 * geom.Eps * far / d.Norm()
	return model.MoveTo(a.Lerp(b, 0.5).Add(nrm.Mul(h)), model.Done)
}

// TestKnownCVViewsAreTrue runs LogVis, and bandBreaker, under
// viewChecker: every full view, whether the engine built its row or
// knew the world to be completely visible, must see all it holds.
// LogVis covers the uniform, clustered, grid, line and spokes starts
// under three schedulers at N 24 and 64, N=192 inline and pipelined,
// and a crash run; bandBreaker breaks the knowledge with a triple only
// two of its three anchors find collinear.
func TestKnownCVViewsAreTrue(t *testing.T) {
	type run struct {
		name  string
		algo  model.Algorithm
		fam   config.Family
		n     int
		sched string
		procs int // 0 keeps the test's GOMAXPROCS
		crash bool
	}
	logvis := core.NewLogVis()
	var runs []run
	for _, fam := range []config.Family{config.Uniform, config.Clustered, config.Grid, config.Line, config.Spokes} {
		for _, sc := range []string{"async-random", "async-stale", "ssync"} {
			for _, n := range []int{24, 64} {
				runs = append(runs, run{fmt.Sprintf("logvis/%s/%s/n%d", fam, sc, n), logvis, fam, n, sc, 0, false})
			}
		}
	}
	runs = append(runs,
		run{"logvis/uniform/async-random/n192/procs1", logvis, config.Uniform, 192, "async-random", 1, false},
		run{"logvis/uniform/async-random/n192/procs4", logvis, config.Uniform, 192, "async-random", 4, false},
		run{"logvis/uniform/async-random/n64/crash", logvis, config.Uniform, 64, "async-random", 0, true},
	)
	for _, sc := range []string{"async-random", "ssync"} {
		for _, procs := range []int{1, 4} {
			runs = append(runs, run{fmt.Sprintf("band-breaker/uniform/%s/n24/procs%d", sc, procs), bandBreaker{}, config.Uniform, 24, sc, procs, false})
		}
	}
	for _, c := range runs {
		t.Run(c.name, func(t *testing.T) {
			v := &viewChecker{Algorithm: c.algo, n: c.n}
			opt := DefaultOptions(sched.ByName(c.sched), 1)
			if c.crash {
				opt.Crashes = []CrashSpec{{Robot: 5, AtEvent: 200, Stage: sched.Looked}}
			}
			if c.algo == (bandBreaker{}) {
				opt.MaxEpochs = 6
			}
			var res Result
			var err error
			do := func() { res, err = Run(v, config.Generate(c.fam, c.n, 1), opt) }
			if c.procs > 0 {
				withProcs(c.procs, do)
			} else {
				do()
			}
			if err != nil {
				t.Fatal(err)
			}
			for _, e := range v.errs {
				t.Error(e)
			}
			if c.algo == (bandBreaker{}) && (res.Moves != 1 || res.Reached) {
				t.Errorf("band-breaker made %d moves and reached=%v, want one move that breaks Complete Visibility", res.Moves, res.Reached)
			}
			if c.crash && len(res.Crashed) == 0 {
				t.Error("the crash never fired")
			}
			if c.fam == config.Uniform && v.full == 0 {
				t.Errorf("no full view in %d Computes of a uniform start", v.computes)
			}
			if c.procs == 1 && c.fam == config.Uniform && res.Kernel.RowsComputed+res.Kernel.RowsReused >= int64(v.computes) {
				t.Errorf("the engine served %d rows for %d Looks: no Look of a completely visible world went without a row",
					res.Kernel.RowsComputed+res.Kernel.RowsReused, v.computes)
			}
		})
	}
}
