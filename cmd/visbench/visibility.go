package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"os"
	"runtime"
	"testing"

	"luxvis/internal/geom"
)

// visBenchSizes is the N sweep of the visibility-kernel baseline,
// mirroring kernelBenchSizes in internal/geom/bench_test.go.
var visBenchSizes = []int{64, 256, 1024, 4096}

// VisBenchHost identifies the machine a baseline was measured on. The
// -check-baseline gate compares only on a host with the same core
// count.
type VisBenchHost struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
}

// VisBenchRow is one swarm size's measurements. "Pass" means resolving
// all N visibility rows once: the kernel as N warm Kernel.VisibleRow
// calls into one reused buffer, the per-Look baseline as N independent
// allocating VisibleSetFast calls.
type VisBenchRow struct {
	N                 int     `json:"n"`
	KernelNsPerPass   int64   `json:"kernelNsPerPass"`
	PerLookNsPerPass  int64   `json:"perLookNsPerPass"`
	KernelAllocsPass  int64   `json:"kernelAllocsPerPass"`
	PerLookAllocsPass int64   `json:"perLookAllocsPerPass"`
	SpeedupFull       float64 `json:"speedupFull"`
}

// VisBenchReport is the BENCH_visibility.json schema.
type VisBenchReport struct {
	Host  VisBenchHost  `json:"host"`
	Sizes []VisBenchRow `json:"sizes"`
	Notes []string      `json:"notes"`
}

func visBenchPoints(n int) []geom.Point {
	rng := rand.New(rand.NewSource(2)) // matches internal/geom bench seed
	pts := make([]geom.Point, n)
	for i := range pts {
		pts[i] = geom.Pt(rng.Float64()*1000, rng.Float64()*1000)
	}
	return pts
}

// measureVisibility times one pass of each kind over n points; the full
// report and the -check-baseline gate share it.
func measureVisibility(n int) VisBenchRow {
	pts := visBenchPoints(n)
	kernRes := testing.Benchmark(func(b *testing.B) {
		kern := geom.NewKernel(1)
		defer kern.Close()
		var row []int
		for r := range pts {
			row = kern.VisibleRow(row, pts, r)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for r := range pts {
				row = kern.VisibleRow(row, pts, r)
			}
		}
	})
	lookRes := testing.Benchmark(func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for r := range pts {
				_ = geom.VisibleSetFast(pts, r)
			}
		}
	})
	row := VisBenchRow{
		N:                 n,
		KernelNsPerPass:   kernRes.NsPerOp(),
		PerLookNsPerPass:  lookRes.NsPerOp(),
		KernelAllocsPass:  int64(kernRes.AllocsPerOp()),
		PerLookAllocsPass: int64(lookRes.AllocsPerOp()),
	}
	if row.KernelNsPerPass > 0 {
		row.SpeedupFull = float64(row.PerLookNsPerPass) / float64(row.KernelNsPerPass)
	}
	return row
}

// runVisibilityBench measures the kernel against the per-Look baseline
// and writes the JSON baseline to w.
func runVisibilityBench(w io.Writer) error {
	rep := VisBenchReport{
		Host: VisBenchHost{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Notes: visBenchNotes,
	}
	for _, n := range visBenchSizes {
		row := measureVisibility(n)
		rep.Sizes = append(rep.Sizes, row)
		fmt.Fprintf(os.Stderr, "visbench: n=%d kernel=%dns perLook=%dns (full %.2fx)\n",
			n, row.KernelNsPerPass, row.PerLookNsPerPass, row.SpeedupFull)
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}

// visBenchNotes explains the report's columns.
var visBenchNotes = []string{
	"A pass resolves all N visibility rows once; ns figures are per pass.",
	"kernel: N warm Kernel.VisibleRow calls into one reused buffer (arena-backed, zero allocations when warm) on a 1-worker kernel.",
	"perLook: N independent VisibleSetFast calls, each allocating its own scratch — the pre-kernel engine cost per cycle of Looks.",
	"speedupFull = perLook/kernel, on this host.",
}
