package luxvis_test

// One benchmark per table/figure of the reproduction (see DESIGN.md and
// EXPERIMENTS.md). Each benchmark regenerates its experiment at the
// quick scale and reports the experiment's headline quantity as a custom
// metric, so `go test -bench=. -benchmem` reproduces the entire
// evaluation in one command. Run cmd/visbench for the full-scale tables.

import (
	"testing"

	"luxvis"
	"luxvis/internal/exp"
)

func benchCfg() exp.Config {
	return exp.Config{Quick: true, Seeds: 2}
}

// BenchmarkT1_LogVisAsyncEpochs regenerates Table T1: LogVis epochs
// against N under the asynchronous scheduler, with the fitted growth
// law. Metric: mean epochs at the largest quick N, and the log-fit R².
func BenchmarkT1_LogVisAsyncEpochs(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.T1LogGrowth(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := res.Cells[len(res.Cells)-1]
		b.ReportMetric(last.Stats.Epochs.Mean, "epochs@maxN")
		b.ReportMetric(res.Growth.Log.R2, "logfit-R2")
	}
}

// BenchmarkT2_ColorCount regenerates Table T2: the number of distinct
// colors lit must not grow with N. Metric: max colors observed.
func BenchmarkT2_ColorCount(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.T2Colors(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.MaxColors), "colors-max")
		b.ReportMetric(float64(res.Palette), "palette")
	}
}

// BenchmarkT3_CollisionFree regenerates Table T3: exact-arithmetic
// safety tallies across all schedulers. Metrics: collisions (claim: 0)
// and concurrent path crossings.
func BenchmarkT3_CollisionFree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.T3Safety(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Collisions), "collisions")
		b.ReportMetric(float64(res.PathCrossings), "path-crossings")
	}
}

// BenchmarkT4_Correctness regenerates Table T4: Complete Visibility is
// reached from every workload family. Metric: fraction of runs reached.
func BenchmarkT4_Correctness(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.T4Correctness(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		runs, reached := 0, 0
		for _, row := range res.Rows {
			runs += row.Runs
			reached += row.Reached
		}
		b.ReportMetric(float64(reached)/float64(runs), "reached-frac")
	}
}

// BenchmarkF1_VsBaseline regenerates Figure F1, the paper's headline
// comparison: O(log N) LogVis against the Θ(N) translation of the
// semi-synchronous algorithm. Metric: the epoch ratio at the largest N.
func BenchmarkF1_VsBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F1VsBaseline(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.SpeedupAtMax, "speedup@maxN")
	}
}

// BenchmarkF2_Schedulers regenerates Figure F2: epochs per scheduler.
// Metric: the async-stale / fsync epoch ratio (the cost of asynchrony).
func BenchmarkF2_Schedulers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F2Schedulers(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		if f := res.Rows["fsync"]; f > 0 {
			b.ReportMetric(res.Rows["async-stale"]/f, "stale/fsync")
		}
	}
}

// BenchmarkF3_BDCP regenerates Figure F3: Beacon-Directed Curve
// Positioning rounds against k. Metric: rounds at the largest quick k.
func BenchmarkF3_BDCP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F3BDCP(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Rounds[len(res.Rounds)-1], "rounds@maxK")
	}
}

// BenchmarkF4_Workloads regenerates Figure F4: epochs per workload
// family. Metric: the worst family's mean epochs.
func BenchmarkF4_Workloads(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F4Workloads(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		worst := 0.0
		for _, e := range res.Rows {
			if e > worst {
				worst = e
			}
		}
		b.ReportMetric(worst, "epochs-worst-family")
	}
}

// BenchmarkF5_Goroutines regenerates Figure F5: the goroutine-per-robot
// runtime. Metric: wall-clock at the largest quick N, in milliseconds.
func BenchmarkF5_Goroutines(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F5Goroutines(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(res.Wall[len(res.Wall)-1].Milliseconds()), "wall-ms@maxN")
	}
}

// BenchmarkF6_Movement regenerates Figure F6: movement cost per robot,
// LogVis vs the baseline. Metric: LogVis distance per robot at max N.
func BenchmarkF6_Movement(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F6Movement(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.LogVisDist[len(res.LogVisDist)-1], "dist/robot@maxN")
	}
}

// BenchmarkEngineRun measures raw engine throughput: one full LogVis run
// at N=64 per iteration (allocation profile included via -benchmem).
func BenchmarkEngineRun(b *testing.B) {
	pts := luxvis.Generate(luxvis.Uniform, 64, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := luxvis.Run(luxvis.NewLogVis(), pts,
			luxvis.DefaultOptions(luxvis.NewAsyncRandom(), int64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached {
			b.Fatalf("iteration %d did not converge", i)
		}
	}
}

// BenchmarkEngineRunNoopObserver is BenchmarkEngineRun with a no-op
// observer attached: the difference between the two is the whole cost of
// the observation layer when someone listens but does nothing. Compare
// against BenchmarkEngineRun (nil Observer) to verify the disabled path
// stays free. Both runs have 64 robots, below the engine's
// Compute-pipelining floor, so both compute inline on any host and the
// gap is observation alone.
func BenchmarkEngineRunNoopObserver(b *testing.B) {
	pts := luxvis.Generate(luxvis.Uniform, 64, 1)
	noop := &luxvis.ObserverFuncs{}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		opt := luxvis.DefaultOptions(luxvis.NewAsyncRandom(), int64(i+1))
		opt.Observer = noop
		res, err := luxvis.Run(luxvis.NewLogVis(), pts, opt)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Reached {
			b.Fatalf("iteration %d did not converge", i)
		}
	}
}

// BenchmarkA1_SagittaAblation regenerates ablation A1: the quadratic
// landing-sagitta law against the naive constant fraction. Metric: the
// fraction of ablated runs that still converge.
func BenchmarkA1_SagittaAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.A1Sagitta(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		runs, reached := 0, 0
		for _, c := range res.Cells {
			if c.Variant != "quadratic (ours)" {
				runs += c.Runs
				reached += c.Reached
			}
		}
		if runs > 0 {
			b.ReportMetric(float64(reached)/float64(runs), "ablated-reached-frac")
		}
	}
}

// BenchmarkA2_GuardAblation regenerates ablation A2: the Transit guard
// against none. Metric: crossing inflation factor without the guard.
func BenchmarkA2_GuardAblation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.A2Guard(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		var ours, ablated int
		for _, c := range res.Cells {
			if c.Variant == "guarded (ours)" {
				ours += c.Cross
			} else {
				ablated += c.Cross
			}
		}
		if ours > 0 {
			b.ReportMetric(float64(ablated)/float64(ours), "crossing-inflation")
		}
	}
}

// BenchmarkF7_Convergence regenerates Figure F7: the per-epoch hull
// composition of one run. Metric: epochs until the interior is empty.
func BenchmarkF7_Convergence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F7Convergence(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		drained := 0
		for _, s := range res.Samples {
			if s.Interior == 0 {
				drained = s.Epoch
				break
			}
		}
		b.ReportMetric(float64(drained), "epochs-to-drain")
	}
}

// BenchmarkF8_ThreeWay regenerates Figure F8: LogVis vs the CircleVis
// reference strategy. Metric: the epochs ratio at the largest quick N.
func BenchmarkF8_ThreeWay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F8ThreeWay(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Ns) - 1
		if res.LogVis[last] > 0 {
			b.ReportMetric(res.CircleVis[last]/res.LogVis[last], "circlevis/logvis")
		}
	}
}

// BenchmarkF9_NonRigid regenerates Figure F9: the non-rigid motion
// stress. Metric: epoch slowdown factor at the largest quick N.
func BenchmarkF9_NonRigid(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := exp.F9NonRigid(benchCfg())
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.Ns) - 1
		if res.Rigid[last] > 0 {
			b.ReportMetric(res.NonRigid[last]/res.Rigid[last], "nonrigid-slowdown")
		}
	}
}
