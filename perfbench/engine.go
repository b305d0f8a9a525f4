package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"time"

	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/exact"
	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// engineWorkload is a fixed batch of whole engine runs executed one at a
// time. The run list is fixed per workload, so every invocation — every
// seed and every repetition — simulates the same work and the simulated
// counts (events, epochs, crossings) repeat exactly; --seed only decides
// the order in which the batch's runs execute.
type engineWorkload struct {
	// layer names the algorithm's module in per-layer metrics.
	layer     string
	algorithm func() model.Algorithm
	scheduler func() sched.Scheduler
	n         int
	seeds     []int64
}

var engineWorkloads = map[string]engineWorkload{
	"logvis-async-n192": {
		layer:     "core",
		algorithm: func() model.Algorithm { return core.NewLogVis() },
		scheduler: func() sched.Scheduler { return sched.NewAsyncRandom() },
		n:         192,
		seeds:     []int64{1, 3},
	},
	"circlevis-stale-n512": {
		layer:     "circlevis",
		algorithm: func() model.Algorithm { return circlevis.NewCircleVis() },
		scheduler: func() sched.Scheduler { return sched.NewAsyncStale() },
		n:         512,
		seeds:     []int64{1, 2},
	},
}

// minRepetitions is the fewest passes over the batch an untraced run
// makes, even when a slow host makes the second one overrun --seconds.
// A traced run, which alternates plain and traced passes, may stop
// after one of each.
const minRepetitions = 2

// runInput is one engine run of a batch.
type runInput struct {
	Seed  int64        `json:"seed"`
	Start []geom.Point `json:"start"`
}

// runList generates the batch's inputs in the order seed picks.
func (w engineWorkload) runList(seed int64) []runInput {
	order := rand.New(rand.NewSource(seed)).Perm(len(w.seeds))
	out := make([]runInput, len(order))
	for i, k := range order {
		s := w.seeds[k]
		out[i] = runInput{Seed: s, Start: config.Generate(config.Uniform, w.n, s)}
	}
	return out
}

// outcome is what one engine run simulated, reduced to the fields that
// must repeat exactly.
type outcome struct {
	events, epochs, crossings int
	digest                    [32]byte
}

// summarize hashes every simulated field of res, so two runs agree on
// the digest only if they simulated the same execution.
func summarize(res sim.Result) outcome {
	h := sha256.New()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(uint64(res.Events), uint64(res.Epochs), uint64(res.Cycles), uint64(res.Moves),
		uint64(res.PathCrossings), uint64(res.Collisions), uint64(res.FirstCVEpoch),
		uint64(res.ColorsUsed), math.Float64bits(res.TotalDist))
	if res.Reached {
		put(1)
	} else {
		put(0)
	}
	for i, p := range res.Final {
		put(math.Float64bits(p.X), math.Float64bits(p.Y), uint64(res.FinalColors[i]))
	}
	o := outcome{events: res.Events, epochs: res.Epochs, crossings: res.PathCrossings}
	copy(o.digest[:], h.Sum(nil))
	return o
}

// runFailure reports why a run counts as failed, or "".
func runFailure(res sim.Result, err error) string {
	switch {
	case err != nil:
		return err.Error()
	case !res.Reached:
		return "did not reach complete visibility"
	case res.Collisions > 0:
		return fmt.Sprintf("%d collisions", res.Collisions)
	}
	return ""
}

// batchResult is one pass over the batch.
type batchResult struct {
	wall time.Duration
	// runs times each sim.Run call.
	runs     []interval
	alloc    uint64
	outcomes []outcome
	failures []string
	layers   layerTimes
}

// runBatch executes every run of the batch once, traced or plain.
func (w engineWorkload) runBatch(inputs []runInput, traced bool) batchResult {
	var b batchResult
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc
	start := time.Now()
	for _, in := range inputs {
		algo, sc := w.algorithm(), w.scheduler()
		opt := sim.DefaultOptions(sc, in.Seed)
		var tr *tracer
		if traced {
			tr = newTracer()
			algo = tr.algorithm(algo)
			opt.Scheduler = tr.scheduler(sc)
			opt.Observer = tr
		}
		c0 := readHostClock()
		if tr != nil {
			tr.begin()
		}
		res, err := sim.Run(algo, in.Start, opt)
		if tr != nil {
			tr.end()
		}
		b.runs = append(b.runs, c0.since())
		why := runFailure(res, err)
		if tr != nil {
			// The engine's own terminal confirmation is this call on the
			// same points; timing it directly gives the exact layer's
			// cost, which the finish interval cross-checks.
			c0 := time.Now()
			ok := exact.CompleteVisibilityHybrid(res.Final)
			tr.times.confirm += time.Since(c0)
			tr.times.confirmRuns++
			if ok != res.Reached && why == "" {
				why = fmt.Sprintf("exact confirmation %v disagrees with reached=%v", ok, res.Reached)
			}
			b.layers.add(tr.times)
		}
		if why != "" {
			b.failures = append(b.failures, fmt.Sprintf("seed %d: %s", in.Seed, why))
		}
		b.outcomes = append(b.outcomes, summarize(res))
	}
	b.wall = time.Since(start)
	runtime.ReadMemStats(&ms)
	b.alloc = ms.TotalAlloc - alloc0
	return b
}

// host is the batch's host time: its sim.Run calls, net of stolen time.
func (b batchResult) host() time.Duration {
	var d time.Duration
	for _, r := range b.runs {
		d += r.host
	}
	return d
}

func (w engineWorkload) run(cfg runConfig) report {
	var rep report
	inputs := w.runList(cfg.seed)
	// Set-up is input generation.
	rep.setup = timeSpaced(setupRepeats, setupGap, func() func() {
		w.runList(cfg.seed)
		return nil
	})

	var ref []outcome
	check := func(b batchResult) {
		rep.attempted += len(inputs)
		rep.failed += len(b.failures)
		for _, f := range b.failures {
			rep.notef("failed run: %s", f)
		}
		if ref == nil {
			ref = b.outcomes
		} else if !slices.Equal(ref, b.outcomes) {
			rep.nondeterministic = true
			rep.notef("repetition simulated different work than the first")
		}
	}

	var plain, traced []batchResult
	deadline := cfg.start.Add(cfg.seconds)
	for {
		rep.calib = append(rep.calib, calibrate())
		b := w.runBatch(inputs, false)
		check(b)
		plain = append(plain, b)
		last := b.wall
		if cfg.trace {
			t := w.runBatch(inputs, true)
			check(t)
			traced = append(traced, t)
			last += t.wall
		}
		if (cfg.trace || len(plain) >= minRepetitions) && time.Now().Add(last).After(deadline) {
			break
		}
	}

	// A run's latency is its host time's median over repetitions, so
	// one bad moment of the host does not become the batch's p99.
	var hostTimes, walls, allocs, runLatency []float64
	perRun := make([][]float64, len(inputs))
	for _, b := range plain {
		hostTimes = append(hostTimes, b.host().Seconds())
		walls = append(walls, b.wall.Seconds())
		allocs = append(allocs, float64(b.alloc)/1e6)
		for i, r := range b.runs {
			perRun[i] = append(perRun[i], r.host.Seconds()*1000)
		}
	}
	for _, xs := range perRun {
		runLatency = append(runLatency, median(xs))
	}
	var events, epochs, crossings int
	for _, o := range ref {
		events += o.events
		epochs += o.epochs
		crossings += o.crossings
	}
	wall := median(hostTimes)
	rep.notef("batch: %d runs of n=%d, seeds %v; %d repetitions; events=%d epochs=%d crossings=%d",
		len(inputs), w.n, w.seeds, len(plain), events, epochs, crossings)
	rep.notef("batch host times (s): %v", hostTimes)
	rep.notef("batch wall times (s): %v", walls)

	rep.e2e = map[string]float64{
		"wall_s":         wall,
		"alloc_mb":       median(allocs),
		"events_per_s":   float64(events) / wall,
		"epochs":         float64(epochs),
		"path_crossings": float64(crossings),
		"throughput_rps": float64(len(inputs)) / wall,
		"latency_p50_ms": quantile(runLatency, 0.50),
		"latency_p99_ms": quantile(runLatency, 0.99),
	}
	if cfg.trace {
		rep.layers = w.layerMetrics(plain, traced, &rep)
	}
	return rep
}

// layerMetrics turns the traced passes into per-layer metrics: the
// median over passes of each layer's self time, and the pass counters
// (identical in every pass, since every pass simulates the same work).
func (w engineWorkload) layerMetrics(plain, traced []batchResult, rep *report) map[string]float64 {
	// Overhead compares the passes' sim.Run host times, which leave out
	// the traced pass's extra exact confirmation calls.
	var plainHost, tracedHost, tracedWalls []float64
	for _, b := range plain {
		plainHost = append(plainHost, b.host().Seconds())
	}
	self := map[string][]float64{}
	for _, b := range traced {
		tracedHost = append(tracedHost, b.host().Seconds())
		tracedWalls = append(tracedWalls, b.layers.wall.Seconds())
		st := selfTimes(b.layers)
		sum := 0.0
		for k, v := range st {
			self[k] = append(self[k], v)
			sum += v
			if v < 0 {
				rep.notef("trace: negative self time %s=%.6f s", k, v)
			}
		}
		wall := b.layers.wall.Seconds()
		rep.notef("trace: self times sum to %.6f s of %.6f s traced wall (%+.2e)", sum, wall, sum/wall-1)
		rep.notef("trace: exact confirm %.4f s vs finish interval %.4f s; %d of %d runs may hold a CV check in finish",
			b.layers.confirm.Seconds(), b.layers.span[spanFinish].Seconds(), b.layers.finishWithCV, b.layers.confirmRuns)
	}
	l := traced[0].layers
	m := map[string]float64{
		w.layer + ".compute_calls": float64(l.computeCalls),
		w.layer + ".move_frac":     float64(l.computeMoves) / float64(l.computeCalls),
		"sched.next_calls":         float64(l.nextCalls),
		"geom.rows_computed":       float64(l.rowsComputed),
		"geom.rows_reused":         float64(l.rowsReused),
		"geom.row_reuse_frac":      float64(l.rowsReused) / float64(l.rowsComputed+l.rowsReused),
		"geom.cv_checks":           float64(l.cvChecks),
		"trace.wall_s":             median(tracedWalls),
		"trace.overhead_frac":      median(tracedHost)/median(plainHost) - 1,
	}
	for k, vs := range self {
		if k == "compute_s" {
			k = w.layer + ".compute_s"
		}
		m[k] = median(vs)
	}
	var confirm []float64
	for _, b := range traced {
		confirm = append(confirm, b.layers.confirm.Seconds())
	}
	m["exact.confirm_s"] = median(confirm)
	return m
}

// selfTimes partitions one traced pass into layer self times that sum to
// the traced wall time. The visibility kernel's own counters sit inside
// the intervals that contain them — Look rows inside spanLook, CV checks
// inside spanLoop — and are taken out of those; everything not
// attributed to a layer, including the tracer's own callbacks, is
// sim.other_s. The exact layer's confirmation runs inside sim.finish_s;
// exact.confirm_s times the same call directly, outside the pass.
func selfTimes(l layerTimes) map[string]float64 {
	s := func(d time.Duration) float64 { return d.Seconds() }
	return map[string]float64{
		"sched.next_s":   s(l.span[spanNext]),
		"compute_s":      s(l.span[spanCompute]),
		"geom.look_s":    s(l.look),
		"geom.cv_s":      s(l.cv),
		"sim.step_s":     s(l.span[spanStep]),
		"sim.move_end_s": s(l.span[spanMoveEnd]),
		"sim.epoch_s":    s(l.span[spanLoop] - l.cv),
		"sim.finish_s":   s(l.span[spanFinish]),
		"sim.other_s":    s(l.span[spanLook] - l.look + l.span[spanOther] + l.span[spanObs]),
	}
}
