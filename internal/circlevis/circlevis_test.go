package circlevis_test

import (
	"slices"
	"sync"
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

func TestCircleVisBasics(t *testing.T) {
	a := circlevis.NewCircleVis()
	if a.Name() != "circlevis" {
		t.Errorf("Name = %q", a.Name())
	}
	if len(a.Palette()) != 4 {
		t.Errorf("palette = %d", len(a.Palette()))
	}
}

func TestCircleVisSettledRobotStays(t *testing.T) {
	a := circlevis.NewCircleVis()
	// Three robots on a common circle: each is on its view's SEC
	// boundary and must hold.
	s := model.Snapshot{
		Self: model.RobotView{Pos: geom.Pt(10, 0), Color: model.Off},
		Others: []model.RobotView{
			{Pos: geom.Pt(-5, 8.66), Color: model.Corner},
			{Pos: geom.Pt(-5, -8.66), Color: model.Corner},
		},
	}
	act := a.Compute(s)
	if !act.IsStay(geom.Pt(10, 0)) {
		t.Errorf("on-circle robot moved: %+v", act)
	}
}

func TestCircleVisInteriorMovesOutward(t *testing.T) {
	a := circlevis.NewCircleVis()
	s := model.Snapshot{
		Self: model.RobotView{Pos: geom.Pt(2, 1), Color: model.Off},
		Others: []model.RobotView{
			{Pos: geom.Pt(10, 0), Color: model.Off},
			{Pos: geom.Pt(-10, 0), Color: model.Off},
			{Pos: geom.Pt(0, 10), Color: model.Off},
			{Pos: geom.Pt(0, -10), Color: model.Off},
		},
	}
	act := a.Compute(s)
	if act.IsStay(geom.Pt(2, 1)) {
		t.Fatal("interior robot did not move")
	}
	if act.Color != model.Transit {
		t.Errorf("mover color = %v", act.Color)
	}
	// Radial: the target must be farther from the SEC center (≈ origin).
	if act.Target.Norm() <= geom.Pt(2, 1).Norm() {
		t.Errorf("move not outward: %v", act.Target)
	}
}

func TestCircleVisConvergesGeneric(t *testing.T) {
	for _, fam := range []config.Family{config.Uniform, config.Clustered, config.Circle, config.Onion} {
		for _, n := range []int{6, 12, 24} {
			pts := config.Generate(fam, n, 5)
			opt := sim.DefaultOptions(sched.NewAsyncRandom(), 5)
			opt.MaxEpochs = 2000
			res, err := sim.Run(circlevis.NewCircleVis(), pts, opt)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Reached {
				t.Errorf("%s n=%d: did not converge in %d epochs", fam, n, res.Epochs)
				continue
			}
			if res.Collisions != 0 {
				t.Errorf("%s n=%d: %d collisions", fam, n, res.Collisions)
			}
			if !exact.CompleteVisibilityHybrid(res.Final) {
				t.Errorf("%s n=%d: final config fails exact CV", fam, n)
			}
		}
	}
}

func TestCircleVisAlone(t *testing.T) {
	a := circlevis.NewCircleVis()
	act := a.Compute(model.Snapshot{Self: model.RobotView{Pos: geom.Pt(1, 1)}})
	if !act.IsStay(geom.Pt(1, 1)) || act.Color != model.Done {
		t.Errorf("alone: %+v", act)
	}
}

// recorder wraps CircleVis and keeps a copy of every snapshot it sees:
// a snapshot's Others is valid only until Compute returns.
type recorder struct {
	*circlevis.CircleVis
	mu    sync.Mutex
	snaps []model.Snapshot
}

func (r *recorder) Compute(s model.Snapshot) model.Action {
	r.mu.Lock()
	r.snaps = append(r.snaps, model.Snapshot{Self: s.Self, Others: slices.Clone(s.Others)})
	r.mu.Unlock()
	return r.CircleVis.Compute(s)
}

// TestComputeConcurrent runs one CircleVis's Compute from 8 goroutines
// at once over snapshots recorded from engine runs and requires each
// answer to equal the serial one, so Compute's pooled point scratch
// never leaks between concurrent calls.
func TestComputeConcurrent(t *testing.T) {
	rec := &recorder{CircleVis: circlevis.NewCircleVis()}
	for _, fam := range []config.Family{config.Uniform, config.Clustered, config.Circle} {
		opt := sim.DefaultOptions(sched.NewAsyncRandom(), 2)
		if _, err := sim.Run(rec, config.Generate(fam, 40, 2), opt); err != nil {
			t.Fatal(err)
		}
	}
	// An even sample across the runs keeps the race job quick.
	snaps := make([]model.Snapshot, 0, 1500)
	for i := range cap(snaps) {
		snaps = append(snaps, rec.snaps[i*len(rec.snaps)/cap(snaps)])
	}
	a := circlevis.NewCircleVis()
	want := make([]model.Action, len(snaps))
	moves := 0
	for i, s := range snaps {
		want[i] = a.Compute(s)
		if !want[i].IsStay(s.Self.Pos) {
			moves++
		}
	}
	if moves == 0 || moves == len(snaps) {
		t.Fatalf("%d of %d sampled snapshots move: the sample misses a branch", moves, len(snaps))
	}
	t.Logf("%d of %d recorded snapshots sampled, %d moves", len(snaps), len(rec.snaps), moves)
	const workers = 8
	var wg sync.WaitGroup
	errs := make([]int, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			errs[w] = -1
			// Each worker starts at a different offset, so snapshots of
			// different sizes overlap in time.
			for k := range snaps {
				i := (k + w*len(snaps)/workers) % len(snaps)
				if got := a.Compute(snaps[i]); got != want[i] {
					errs[w] = i
					return
				}
			}
		}(w)
	}
	wg.Wait()
	for w, i := range errs {
		if i >= 0 {
			t.Errorf("worker %d: Compute of snapshot %d differs from the serial answer %+v", w, i, want[i])
		}
	}
}
