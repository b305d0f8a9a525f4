package sim

import (
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/sched"
)

// TestRowReuse: an inline run serves a Look's row again when no robot
// has moved since that robot's last row, and builds it otherwise. A
// CircleVis line start changes lights far more often than positions,
// so many of its Looks find no move since their last row; the counters
// of an inline run are a function of its inputs.
func TestRowReuse(t *testing.T) {
	run := func() Result {
		opt := DefaultOptions(sched.NewAsyncRandom(), 3)
		opt.MaxEpochs = 15
		var res Result
		var err error
		withProcs(1, func() { res, err = Run(circlevis.NewCircleVis(), config.Generate(config.Line, 64, 3), opt) })
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	t.Logf("rows computed %d, reused %d, moves %d, cycles %d", a.Kernel.RowsComputed, a.Kernel.RowsReused, a.Moves, a.Cycles)
	if a.Kernel.RowsReused == 0 {
		t.Errorf("rows computed %d, reused 0: no Look served a row again", a.Kernel.RowsComputed)
	}
	if a.Kernel.RowsComputed == 0 {
		t.Error("no row was built")
	}
	if a.Kernel.RowsComputed != b.Kernel.RowsComputed || a.Kernel.RowsReused != b.Kernel.RowsReused {
		t.Errorf("two inline runs of the same inputs counted %+v and %+v", a.Kernel, b.Kernel)
	}
}
