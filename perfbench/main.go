// Command perfbench is luxvis's end-to-end benchmark. One invocation
// runs one workload for a fixed time, checks every output, and prints
// its metrics as the last line of standard output:
//
//	bash perfbench/run.sh --workload logvis-async-n192 --seed 1 --seconds 30 --trace 0
//
// With --trace 0 the metrics are the end-to-end ones (BENCHMARK.json's
// end_to_end); with --trace 1 the run is split across the layers it
// passes through (per_layer), timed from this package around calls into
// each layer's public API. NOTES.md describes the workloads, the layer
// split and the findings behind them.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"
)

// Units of every metric the benchmark can print, by name. The two lists
// mirror BENCHMARK.json (a test keeps them in step).
var endToEnd = map[string]string{
	"setup_s":        "s",
	"alloc_mb":       "MB",
	"wall_s":         "s",
	"events_per_s":   "1/s",
	"epochs":         "count",
	"path_crossings": "count",
	"throughput_rps": "1/s",
	"latency_p50_ms": "ms",
	"latency_p99_ms": "ms",
}

var perLayer = map[string]string{
	"core.compute_s":          "s",
	"core.compute_calls":      "count",
	"core.move_frac":          "ratio",
	"circlevis.compute_s":     "s",
	"circlevis.compute_calls": "count",
	"circlevis.move_frac":     "ratio",
	"sched.next_s":            "s",
	"sched.next_calls":        "count",
	"geom.look_s":             "s",
	"geom.rows_computed":      "count",
	"geom.rows_reused":        "count",
	"geom.row_reuse_frac":     "ratio",
	"geom.cv_s":               "s",
	"geom.cv_checks":          "count",
	"exact.confirm_s":         "s",
	"sim.finish_s":            "s",
	"sim.step_s":              "s",
	"sim.move_end_s":          "s",
	"sim.epoch_s":             "s",
	"sim.other_s":             "s",
	"trace.wall_s":            "s",
	"trace.overhead_frac":     "ratio",
	"host.calib_s":            "s",
	"host.steal_frac":         "ratio",
	"serve.hit_p50_ms":        "ms",
	"serve.miss_p50_ms":       "ms",
	"serve.stream_p50_ms":     "ms",
	"serve.cache_hit_frac":    "ratio",
	"serve.rejected":          "count",
	"stream.encode_s":         "s",
	"stream.frames":           "count",
	"stream.mb":               "MB",
	"stream.dropped":          "count",
}

// A run repeats its set-up setupRepeats times, setupGap apart; setup_s
// is the median.
const (
	setupRepeats = 51
	setupGap     = 40 * time.Millisecond
)

// runConfig is one invocation's settings.
type runConfig struct {
	seed    int64
	seconds time.Duration
	trace   bool
	start   time.Time
}

// report is what a workload measured.
type report struct {
	setup            []float64
	calib            []float64
	attempted        int
	failed           int
	nondeterministic bool
	e2e              map[string]float64
	layers           map[string]float64
	notes            []string
}

func (r *report) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

type workload interface {
	run(cfg runConfig) report
}

func workloads() map[string]workload {
	m := map[string]workload{"serve-mixed": serveMixed{}}
	for name, w := range engineWorkloads {
		m[name] = w
	}
	return m
}

type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultJSON struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]metricJSON `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	seed := fs.Int64("seed", 1, "input seed")
	seconds := fs.Int("seconds", 30, "measured time per run, in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	all := workloads()
	w, ok := all[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		names := make([]string, 0, len(all))
		for n := range all {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(stderr, "perfbench: need --workload (%s), --seconds >= 1 and --trace 0|1\n", strings.Join(names, ", "))
		return 2
	}

	cfg := runConfig{seed: *seed, seconds: time.Duration(*seconds) * time.Second, trace: *trace == 1, start: time.Now()}
	host := hostShape()
	fmt.Fprintf(stdout, "host: %s\n", mustJSON(host))
	clock := readHostClock()
	rep := w.run(cfg)
	steal := clock.since().stealFrac
	rep.notef("host calibration (s): %v; steal %.4f of CPU time", rep.calib, steal)
	for _, n := range rep.notes {
		fmt.Fprintf(stdout, "note: %s\n", n)
	}

	out := resultJSON{
		Correct:   rep.failed == 0 && !rep.nondeterministic,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   map[string]metricJSON{},
	}
	if cfg.trace {
		rep.layers["host.calib_s"] = median(rep.calib)
		rep.layers["host.steal_frac"] = steal
		for n, unit := range perLayer {
			// A layer the workload never reaches reads 0.
			out.Metrics[n] = metricJSON{Value: finite(rep.layers[n]), Unit: unit}
		}
	} else {
		rep.e2e["setup_s"] = median(rep.setup)
		for n, unit := range endToEnd {
			out.Metrics[n] = metricJSON{Value: finite(rep.e2e[n]), Unit: unit}
		}
	}
	fmt.Fprintln(stdout, mustJSON(out))
	return 0
}

// finite maps NaN and infinities, which JSON cannot carry, to 0.
func finite(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return v
}

func mustJSON(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// hostShape records what the numbers were measured on.
func hostShape() map[string]any {
	return map[string]any{
		"nproc":      os.Getenv("PERFBENCH_NPROC"),
		"numCPU":     runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"commit":     os.Getenv("PERFBENCH_COMMIT"),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
