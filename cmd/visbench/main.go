// Command visbench regenerates the reproduction's tables and figures
// (see EXPERIMENTS.md): every experiment can be run individually or as a
// full suite.
//
// Usage:
//
//	visbench                 # run the full suite (T1-T4, F1-F6)
//	visbench -exp T1         # one experiment
//	visbench -exp F1 -quick  # shrunken sweep (CI-sized)
//	visbench -seeds 10       # more repetitions per cell
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"luxvis/internal/exp"
	"luxvis/internal/version"
)

func main() {
	var (
		expName    = flag.String("exp", "all", "experiment to run (T1-T4, F1-F6, or 'all')")
		quick      = flag.Bool("quick", false, "shrink sweeps for a fast pass")
		seeds      = flag.Int("seeds", 0, "repetitions per cell (0 = experiment default)")
		epochs     = flag.Int("max-epochs", 0, "per-run epoch cap (0 = default)")
		svgDir     = flag.String("svg", "", "also write SVG figures (T1, F1, F3) into this directory")
		visBench   = flag.String("bench-visibility", "", "measure the visibility kernel against the per-Look baseline, write the JSON report to this path ('-' = stdout), and exit")
		strBench   = flag.String("bench-stream", "", "measure stream-hub fan-out overhead on the hot engine path, write the JSON report to this path ('-' = stdout), and exit")
		checkBase  = flag.Bool("check-baseline", false, "re-measure a CI-sized subset and compare against the checked-in benchmark baselines; exit 1 on regression, skip (exit 0) on a core-count mismatch")
		baseVis    = flag.String("baseline-visibility", "BENCH_visibility.json", "visibility baseline for -check-baseline")
		baseStream = flag.String("baseline-stream", "BENCH_stream.json", "stream baseline for -check-baseline")
		baseTol    = flag.Float64("baseline-tolerance", 0.35, "allowed relative regression for -check-baseline ratios")
		showVer    = flag.Bool("version", false, "print build version and exit")
	)
	flag.Parse()
	if *showVer {
		fmt.Println(version.String())
		return
	}
	if *checkBase {
		if *baseTol <= 0 || *baseTol >= 1 {
			fmt.Fprintf(os.Stderr, "visbench: -baseline-tolerance %v is not in (0, 1)\n", *baseTol)
			os.Exit(2)
		}
		os.Exit(runCheckBaseline(*baseVis, *baseStream, *baseTol, os.Stdout))
	}
	if *visBench != "" {
		out := os.Stdout
		if *visBench != "-" {
			f, err := os.Create(*visBench)
			if err != nil {
				fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := runVisibilityBench(out); err != nil {
			fmt.Fprintf(os.Stderr, "visbench: bench-visibility: %v\n", err)
			os.Exit(1)
		}
		return
	}
	if *strBench != "" {
		out := os.Stdout
		if *strBench != "-" {
			f, err := os.Create(*strBench)
			if err != nil {
				fmt.Fprintf(os.Stderr, "visbench: %v\n", err)
				os.Exit(1)
			}
			defer f.Close()
			out = f
		}
		if err := runStreamBench(out); err != nil {
			fmt.Fprintf(os.Stderr, "visbench: bench-stream: %v\n", err)
			os.Exit(1)
		}
		return
	}

	cfg := exp.Config{Quick: *quick, Seeds: *seeds, MaxEpochs: *epochs, Out: os.Stdout}

	names := exp.Names()
	if *expName != "all" {
		names = strings.Split(*expName, ",")
	}
	// Validate every requested name before running anything: a typo in a
	// comma-separated list should fail immediately with the known names,
	// not after minutes of sweeps on the experiments before it.
	for i := range names {
		names[i] = strings.TrimSpace(names[i])
		if !knownExperiment(names[i]) {
			fmt.Fprintf(os.Stderr, "visbench: unknown experiment %q (known: %s)\n",
				names[i], strings.Join(exp.Names(), ", "))
			os.Exit(2)
		}
	}
	for i, name := range names {
		if i > 0 {
			fmt.Println()
		}
		start := time.Now()
		if err := exp.Run(name, cfg); err != nil {
			fmt.Fprintf(os.Stderr, "visbench: %s: %v\n", name, err)
			os.Exit(1)
		}
		fmt.Printf("(%s finished in %v)\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *svgDir != "" {
		figCfg := cfg
		figCfg.Out = nil // tables were already printed above
		paths, err := exp.Figures(figCfg, *svgDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "visbench: figures: %v\n", err)
			os.Exit(1)
		}
		for _, p := range paths {
			fmt.Printf("figure: %s\n", p)
		}
	}
}

// knownExperiment reports whether name is one of the compiled-in
// experiment identifiers.
func knownExperiment(name string) bool {
	for _, k := range exp.Names() {
		if name == k {
			return true
		}
	}
	return false
}
