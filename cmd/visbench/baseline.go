package main

// The -check-baseline gate (ROADMAP item 2d): re-measure a small,
// CI-sized subset of the visibility and stream benchmarks and compare
// against the checked-in BENCH_visibility.json / BENCH_stream.json.
// Wall-clock numbers do not transfer between hosts, so every
// comparison is a *ratio* measured on one machine (speedupFull,
// engine-vs-baseline overhead) and the gate refuses to judge at all
// when the current host's core count differs from the baseline's —
// it skips with exit 0 rather than fail on hardware, so the job is
// safe to run on heterogeneous CI runners. Within a matching host,
// a regression beyond the tolerance exits 1.

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"time"
)

// checkBaselineSizes is the visibility subset the gate re-measures:
// the small end of the sweep, where a run fits CI budgets.
var checkBaselineSizes = []int{64, 256}

// checkBaselineSubs is the stream fan-out subset.
var checkBaselineSubs = []int{1, 64}

// streamGateRounds is how many rounds the stream half of the gate
// measures. Each round runs the bare engine once and then the hub once
// per checkBaselineSubs count, and the ratio judged is the median hub
// time over the median bare time. (One bare run against a best-of-3
// hub run swung past the tolerance between runs of one commit.)
const streamGateRounds = 11

// compareVisibility checks fresh visibility rows against the baseline
// report, returning one human-readable issue per regression. Two
// checks per size: the kernel's zero-allocation invariant (absolute —
// an allocation on the warm path is a bug on any host), and the
// full-pass speedup ratio, which may not fall below the baseline's by
// more than tol (0.35 = 35%).
func compareVisibility(base *VisBenchReport, fresh []VisBenchRow, tol float64) []string {
	byN := make(map[int]VisBenchRow)
	for _, row := range base.Sizes {
		byN[row.N] = row
	}
	var issues []string
	for _, row := range fresh {
		if row.KernelAllocsPass > 0 {
			issues = append(issues, fmt.Sprintf(
				"visibility n=%d: kernel pass allocates (%d allocs/pass); the warm kernel must be zero-allocation",
				row.N, row.KernelAllocsPass))
		}
		b, ok := byN[row.N]
		if !ok || b.SpeedupFull <= 0 {
			continue
		}
		floor := b.SpeedupFull * (1 - tol)
		if row.SpeedupFull < floor {
			issues = append(issues, fmt.Sprintf(
				"visibility n=%d: speedupFull %.2fx fell below %.2fx (baseline %.2fx - %.0f%% tolerance)",
				row.N, row.SpeedupFull, floor, b.SpeedupFull, tol*100))
		}
	}
	return issues
}

// compareStream checks fresh fan-out rows against the baseline report.
// The transferable quantity is the overhead ratio engineNs/baselineNs
// (hub attached vs bare run, same host, same moment; the gate passes
// the medians of measureStreamGate's rounds); a fresh ratio more than
// tol above the baseline's is a regression.
func compareStream(base *StreamBenchReport, freshBaselineNs int64, fresh []StreamBenchRow, tol float64) []string {
	if base.BaselineNs <= 0 || freshBaselineNs <= 0 {
		return []string{"stream: baseline run measured no wall time; cannot compare"}
	}
	bySubs := make(map[int]StreamBenchRow)
	for _, row := range base.Fanout {
		bySubs[row.Subscribers] = row
	}
	var issues []string
	for _, row := range fresh {
		b, ok := bySubs[row.Subscribers]
		if !ok || b.EngineNs <= 0 {
			continue
		}
		baseRatio := float64(b.EngineNs) / float64(base.BaselineNs)
		freshRatio := float64(row.EngineNs) / float64(freshBaselineNs)
		ceiling := baseRatio * (1 + tol)
		if freshRatio > ceiling {
			issues = append(issues, fmt.Sprintf(
				"stream %d subscriber(s): engine/baseline ratio %.3f exceeds %.3f (baseline %.3f + %.0f%% tolerance)",
				row.Subscribers, freshRatio, ceiling, baseRatio, tol*100))
		}
	}
	return issues
}

// measureStreamGate runs the stream half's alternated rounds and
// returns the median bare run time and one row per checkBaselineSubs
// count carrying its median hub run time.
func measureStreamGate() (bareNs int64, rows []StreamBenchRow, err error) {
	bare := make([]time.Duration, 0, streamGateRounds)
	hub := make([][]time.Duration, len(checkBaselineSubs))
	for round := 0; round < streamGateRounds; round++ {
		d, err := streamBenchRun(nil)
		if err != nil {
			return 0, nil, err
		}
		bare = append(bare, d)
		for i, subs := range checkBaselineSubs {
			r, err := streamHubRun(subs)
			if err != nil {
				return 0, nil, err
			}
			hub[i] = append(hub[i], r.engine)
		}
	}
	for i, subs := range checkBaselineSubs {
		rows = append(rows, StreamBenchRow{Subscribers: subs, EngineNs: medianDuration(hub[i]).Nanoseconds()})
	}
	return medianDuration(bare).Nanoseconds(), rows, nil
}

// medianDuration returns the median of ds (the upper middle for an even
// count), reordering ds.
func medianDuration(ds []time.Duration) time.Duration {
	slices.Sort(ds)
	return ds[len(ds)/2]
}

// loadBaseline reads one checked-in report.
func loadBaseline(path string, into any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := json.NewDecoder(f).Decode(into); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// runCheckBaseline is the -check-baseline entry point. Exit codes:
// 0 within tolerance (or skipped on a host mismatch), 1 regression,
// 2 unreadable baseline.
func runCheckBaseline(visPath, streamPath string, tol float64, stdout io.Writer) int {
	var issues []string
	checked := 0

	var visBase VisBenchReport
	if err := loadBaseline(visPath, &visBase); err != nil {
		fmt.Fprintf(os.Stderr, "visbench: check-baseline: %v\n", err)
		return 2
	}
	if visBase.Host.NumCPU != runtime.NumCPU() {
		fmt.Fprintf(stdout, "visbench: check-baseline: skipping %s (recorded on %d CPU(s), this host has %d; ratios do not transfer)\n",
			visPath, visBase.Host.NumCPU, runtime.NumCPU())
	} else {
		var fresh []VisBenchRow
		for _, n := range checkBaselineSizes {
			fresh = append(fresh, measureVisibility(n))
		}
		issues = append(issues, compareVisibility(&visBase, fresh, tol)...)
		checked++
	}

	var strBase StreamBenchReport
	if err := loadBaseline(streamPath, &strBase); err != nil {
		fmt.Fprintf(os.Stderr, "visbench: check-baseline: %v\n", err)
		return 2
	}
	if strBase.Host.NumCPU != runtime.NumCPU() {
		fmt.Fprintf(stdout, "visbench: check-baseline: skipping %s (recorded on %d CPU(s), this host has %d; ratios do not transfer)\n",
			streamPath, strBase.Host.NumCPU, runtime.NumCPU())
	} else {
		bareNs, rows, err := measureStreamGate()
		if err != nil {
			fmt.Fprintf(os.Stderr, "visbench: check-baseline: %v\n", err)
			return 2
		}
		issues = append(issues, compareStream(&strBase, bareNs, rows, tol)...)
		checked++
	}

	if len(issues) > 0 {
		for _, msg := range issues {
			fmt.Fprintf(stdout, "visbench: check-baseline: REGRESSION: %s\n", msg)
		}
		return 1
	}
	fmt.Fprintf(stdout, "visbench: check-baseline: %d of 2 baseline(s) checked within %.0f%% tolerance\n", checked, tol*100)
	return 0
}
