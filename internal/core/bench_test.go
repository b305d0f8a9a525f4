package core_test

import (
	"fmt"
	"testing"

	"luxvis/internal/core"
	"luxvis/internal/model"
)

// BenchmarkLogVisCompute times a warm interior robot's Compute on a full
// view of a uniform start whose hull corners are the beacons: "hit"
// repeats one view, so the beacon ring comes from the scratch's memo;
// "miss" cycles through one more beacon list than the scratch
// remembers, so every call rebuilds the beacon hull and the ring. It
// fails if a warm call allocates.
func BenchmarkLogVisCompute(b *testing.B) {
	for _, n := range []int{64, 192} {
		_, hit, misses := beaconViews(b, n)
		for _, c := range []struct {
			name  string
			snaps []model.Snapshot
		}{
			{"hit", []model.Snapshot{hit}},
			{"miss", misses},
		} {
			b.Run(fmt.Sprintf("n%d/%s", n, c.name), func(b *testing.B) {
				a := core.NewLogVis()
				next := 0
				compute := func() {
					if got := a.Compute(c.snaps[next%len(c.snaps)]); got.Color != model.Transit {
						b.Fatalf("interior robot computes %v, want %v", got.Color, model.Transit)
					}
					next++
				}
				// Warm the scratch at one proc, as AllocsPerRun measures: a
				// scratch put back on another proc's pool slot is out of reach.
				testing.AllocsPerRun(1, func() {
					for range 2 * len(c.snaps) {
						compute()
					}
				})
				if allocs := testing.AllocsPerRun(10, compute); allocs != 0 && !raceEnabled {
					b.Fatalf("warm Compute allocates %.1f times per call, want 0", allocs)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for range b.N {
					compute()
				}
			})
		}
	}
}
