package core_test

import (
	"slices"
	"sync"
	"testing"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// recorder wraps LogVis and keeps a copy of every snapshot it sees.
type recorder struct {
	*core.LogVis
	snaps []model.Snapshot
}

func (r *recorder) Compute(s model.Snapshot) model.Action {
	r.snaps = append(r.snaps, model.Snapshot{Self: s.Self, Others: slices.Clone(s.Others)})
	return r.LogVis.Compute(s)
}

// TestComputeConcurrent runs one LogVis's Compute from 8 goroutines at
// once over snapshots recorded from engine runs (every branch: line,
// corner, side, interior) and requires each answer to equal the serial
// one, so Compute's pooled scratch never leaks between concurrent calls.
func TestComputeConcurrent(t *testing.T) {
	rec := &recorder{LogVis: core.NewLogVis()}
	for _, fam := range []config.Family{config.Uniform, config.Onion, config.Line} {
		opt := sim.DefaultOptions(sched.NewAsyncRandom(), 2)
		if _, err := sim.Run(rec, config.Generate(fam, 40, 2), opt); err != nil {
			t.Fatal(err)
		}
	}
	// An even sample across the three runs keeps the race job quick.
	snaps := make([]model.Snapshot, 0, 1500)
	for i := range cap(snaps) {
		snaps = append(snaps, rec.snaps[i*len(rec.snaps)/cap(snaps)])
	}
	a := core.NewLogVis()
	want := make([]model.Action, len(snaps))
	moves := 0
	for i, s := range snaps {
		want[i] = a.Compute(s)
		if !want[i].IsStay(s.Self.Pos) {
			moves++
		}
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
			// Each worker starts at a different offset, so different
			// branches and snapshot sizes overlap in time.
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
