package core_test

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"runtime"
	"testing"

	"luxvis/internal/baseline"
	"luxvis/internal/circlevis"
	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
)

// resultDigests pins whole engine runs of LogVis and SeqVis (which calls
// LogVis's Compute) to the simulation they produced when the table was
// generated: every field of sim.Result, JSON-encoded and hashed. Compute
// optimisations must leave every decision byte-identical, so any entry
// that changes is a behaviour change, not noise. To regenerate after a
// deliberate behaviour change, run
//
//	go test ./internal/core -run TestResultDigests -v
//
// and copy the reported digests, stating the reason in the change.
//
// The n192 rows, which add CircleVis and sensor jitter, are large
// enough to pipeline Look and Compute on the engine's compute workers
// whenever the test has two procs to itself, and look and compute inline
// at one; they hash every field but Kernel (see withoutKernel). Run the
// test at -cpu 1,4 to pin both ways against the same digest.
var resultDigests = map[string]string{
	"logvis/uniform/async-random/n24":      "ddf9eb5aea6cc0f0",
	"logvis/uniform/async-random/n64":      "bd4f7d00084bb854",
	"logvis/uniform/async-stale/n24":       "618f5e343adb64b4",
	"logvis/uniform/async-stale/n64":       "a7dc117c445cbbcd",
	"logvis/uniform/ssync/n24":             "6d780c4e72c7905b",
	"logvis/uniform/ssync/n64":             "1eab61261a5eb32e",
	"logvis/clustered/async-random/n24":    "ff07c573bc18e49c",
	"logvis/clustered/async-random/n64":    "1905a9c06d7e34e8",
	"logvis/clustered/async-stale/n24":     "f9f00ae5ef166357",
	"logvis/clustered/async-stale/n64":     "b317f456330d3036",
	"logvis/clustered/ssync/n24":           "35a0aa9606d355c6",
	"logvis/clustered/ssync/n64":           "6e9fcc89dbd92a6f",
	"logvis/line/async-random/n24":         "02534d8d3d8d1dfc",
	"logvis/line/async-random/n64":         "b811379c0523ebbb",
	"logvis/line/async-stale/n24":          "a563c9845a6d1670",
	"logvis/line/async-stale/n64":          "22c82e91c3f4844f",
	"logvis/line/ssync/n24":                "e882cf44648e7c86",
	"logvis/line/ssync/n64":                "d38ce62f079a2dd1",
	"logvis/line-even/async-random/n24":    "dc624d0954a055cc",
	"logvis/line-even/async-random/n64":    "3f6e567937cf3869",
	"logvis/line-even/async-stale/n24":     "1080b4f29cdf3e44",
	"logvis/line-even/async-stale/n64":     "5908f3b1984f7275",
	"logvis/line-even/ssync/n24":           "f6b611c70c7f78d1",
	"logvis/line-even/ssync/n64":           "6731e0651967f8ed",
	"logvis/circle/async-random/n24":       "0c834123cb44f94c",
	"logvis/circle/async-random/n64":       "9971c74576dd9bf4",
	"logvis/circle/async-stale/n24":        "194e726d3342e121",
	"logvis/circle/async-stale/n64":        "aa39c2ad19528fc8",
	"logvis/circle/ssync/n24":              "22dae1ce6fe1cf79",
	"logvis/circle/ssync/n64":              "5d398ee8713d0462",
	"logvis/onion/async-random/n24":        "3c10b4745672614e",
	"logvis/onion/async-random/n64":        "dd84a77ca0e7f4b1",
	"logvis/onion/async-stale/n24":         "5829fed43892ce5b",
	"logvis/onion/async-stale/n64":         "83c2606d65a61566",
	"logvis/onion/ssync/n24":               "2936c46ca4485572",
	"logvis/onion/ssync/n64":               "9f7e848e7570a27a",
	"logvis/grid/async-random/n24":         "fcca695d62d07a3b",
	"logvis/grid/async-random/n64":         "eca72dd63fa90105",
	"logvis/grid/async-stale/n24":          "e5761b9aeef91b42",
	"logvis/grid/async-stale/n64":          "0206efaa3f7d281f",
	"logvis/grid/ssync/n24":                "60077a4168038c5e",
	"logvis/grid/ssync/n64":                "747d8813dac557bd",
	"logvis/two-clusters/async-random/n24": "5c3b44b02ce54c20",
	"logvis/two-clusters/async-random/n64": "deb05e9e793b5c99",
	"logvis/two-clusters/async-stale/n24":  "37748a841ae1e2f4",
	"logvis/two-clusters/async-stale/n64":  "925ab393d4e1f5f5",
	"logvis/two-clusters/ssync/n24":        "c4471a37b78b4bb1",
	"logvis/two-clusters/ssync/n64":        "90987d8eb0aecc0f",
	"logvis/wedge/async-random/n24":        "0768ae040f4f20e2",
	"logvis/wedge/async-random/n64":        "e218b3284586ddd4",
	"logvis/wedge/async-stale/n24":         "2cd9c161d058bd7c",
	"logvis/wedge/async-stale/n64":         "fcfa15c1683fff3c",
	"logvis/wedge/ssync/n24":               "a812d5196740f254",
	"logvis/wedge/ssync/n64":               "889c402699136c44",
	"logvis/spokes/async-random/n24":       "fb01f524a1ead257",
	"logvis/spokes/async-random/n64":       "a061106222d4ffa0",
	"logvis/spokes/async-stale/n24":        "26696978a1a5abd0",
	"logvis/spokes/async-stale/n64":        "2273d1177c13c161",
	"logvis/spokes/ssync/n24":              "d771afca4de2907d",
	"logvis/spokes/ssync/n64":              "e5a3db74f089fd1b",
	"seqvis/uniform/async-random/n24":      "1302331395bc152e",
	"seqvis/uniform/async-random/n64":      "1ba633ed7424dff6",
	"seqvis/uniform/async-stale/n24":       "0c8aa935d6c4183d",
	"seqvis/uniform/async-stale/n64":       "d91b3b9fe34d4c37",
	"seqvis/uniform/ssync/n24":             "851190c7c08721e0",
	"seqvis/uniform/ssync/n64":             "2389febb53fd8feb",
	"seqvis/clustered/async-random/n24":    "1d2822534bd5f2e0",
	"seqvis/clustered/async-random/n64":    "e8c8d975fb12975f",
	"seqvis/clustered/async-stale/n24":     "3542e5c0d87d0c97",
	"seqvis/clustered/async-stale/n64":     "6446ace872cf8d93",
	"seqvis/clustered/ssync/n24":           "0f8f3e64a8c7f28f",
	"seqvis/clustered/ssync/n64":           "c3699b36c2c4b0fb",
	"seqvis/line/async-random/n24":         "e49b5c275cf2ea2e",
	"seqvis/line/async-random/n64":         "0fb9c78332367379",
	"seqvis/line/async-stale/n24":          "eee9e4925c11d5e7",
	"seqvis/line/async-stale/n64":          "ba77022e4a4be992",
	"seqvis/line/ssync/n24":                "f317a47cfa0eef74",
	"seqvis/line/ssync/n64":                "3cdfda01ceb91916",
	"seqvis/line-even/async-random/n24":    "ff8c575f5d3cebba",
	"seqvis/line-even/async-random/n64":    "2d8ee85d18bf9c08",
	"seqvis/line-even/async-stale/n24":     "fcaba6a2a5fe44cb",
	"seqvis/line-even/async-stale/n64":     "1224bdc741894ba5",
	"seqvis/line-even/ssync/n24":           "4a8c6cb5325fd535",
	"seqvis/line-even/ssync/n64":           "aa5249635fc2cc88",
	"seqvis/circle/async-random/n24":       "5e9da67dfa7b3cfd",
	"seqvis/circle/async-random/n64":       "bbd10c6ffd62bb4f",
	"seqvis/circle/async-stale/n24":        "7c7ce2dd3eae0993",
	"seqvis/circle/async-stale/n64":        "a0a03b8b80727f3d",
	"seqvis/circle/ssync/n24":              "0e9b18af89bd1008",
	"seqvis/circle/ssync/n64":              "c42352be8d1a2340",
	"seqvis/onion/async-random/n24":        "e11b0fec38135a23",
	"seqvis/onion/async-random/n64":        "d3a7d8208a6c677d",
	"seqvis/onion/async-stale/n24":         "926d77d83a1564f6",
	"seqvis/onion/async-stale/n64":         "1b46f7f7b1d6414c",
	"seqvis/onion/ssync/n24":               "97e5af36b5f954a1",
	"seqvis/onion/ssync/n64":               "a09a7853653ab590",
	"seqvis/grid/async-random/n24":         "6077dc0ffa1635f9",
	"seqvis/grid/async-random/n64":         "58dbd6fd9ffcbb19",
	"seqvis/grid/async-stale/n24":          "8719058df00907ae",
	"seqvis/grid/async-stale/n64":          "2cb3c41443ba9948",
	"seqvis/grid/ssync/n24":                "eadf634c7a4e3fa3",
	"seqvis/grid/ssync/n64":                "0bc1cb7ac7a3261f",
	"seqvis/two-clusters/async-random/n24": "643a797429cef886",
	"seqvis/two-clusters/async-random/n64": "e7964a04ad54974a",
	"seqvis/two-clusters/async-stale/n24":  "d25d67e5629a9757",
	"seqvis/two-clusters/async-stale/n64":  "1aa12fac5b593763",
	"seqvis/two-clusters/ssync/n24":        "19f52554af80ee2d",
	"seqvis/two-clusters/ssync/n64":        "55c847ac42af0104",
	"seqvis/wedge/async-random/n24":        "ff7bf8c541d97ce8",
	"seqvis/wedge/async-random/n64":        "a328308c6113e3da",
	"seqvis/wedge/async-stale/n24":         "739017a78a278b49",
	"seqvis/wedge/async-stale/n64":         "b8caa1fabf4ec45c",
	"seqvis/wedge/ssync/n24":               "3dcb89a4530187b5",
	"seqvis/wedge/ssync/n64":               "580dbc15ab9eb883",
	"seqvis/spokes/async-random/n24":       "29a08ad7b4728e3c",
	"seqvis/spokes/async-random/n64":       "f63631f9a618f97b",
	"seqvis/spokes/async-stale/n24":        "39da385196c32d78",
	"seqvis/spokes/async-stale/n64":        "367011e70cc6115c",
	"seqvis/spokes/ssync/n24":              "b70bcc784124644c",
	"seqvis/spokes/ssync/n64":              "cac1cd30b020b063",

	// Pipelined at two procs or more (see above).
	"logvis/uniform/async-random/n192":              "749f005e0cd6d7ba",
	"logvis/line/async-random/n192":                 "52fdafd6e87843c4",
	"seqvis/uniform/async-random/n192":              "aa436399f971269b",
	"circlevis/uniform/async-random/n192":           "cd89d7bc95ee91fb",
	"logvis/uniform/async-random/n192/jitter=1e-06": "e0a666db388556ca",
}

func resultDigest(t *testing.T, res sim.Result) string {
	t.Helper()
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("encode result: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// withoutKernel returns res with Kernel zeroed. Kernel is the only
// Result field that depends on whether the run pipelined: a pipelined
// run builds its rows on the compute workers and counts none of them
// (see sim.KernelStats). It stays in Result while perfbench reads it
// (ROADMAP item 10), so the rows that may pipeline hash without it.
func withoutKernel(res sim.Result) sim.Result {
	res.Kernel = sim.KernelStats{}
	return res
}

func TestResultDigests(t *testing.T) {
	logvis := func() model.Algorithm { return core.NewLogVis() }
	seqvis := func() model.Algorithm { return baseline.NewSeqVis() }
	algos := []struct {
		name string
		new  func() model.Algorithm
	}{
		{"logvis", logvis},
		{"seqvis", seqvis},
	}
	seen := 0
	check := func(key, got string) {
		t.Helper()
		seen++
		if want, ok := resultDigests[key]; !ok {
			t.Errorf("%q: %q, // not in the table", key, got)
		} else if got != want {
			t.Errorf("%q: %q, // table has %s", key, got, want)
		}
	}
	for _, a := range algos {
		for _, fam := range config.Families() {
			for _, sc := range []string{"async-random", "async-stale", "ssync"} {
				for _, n := range []int{24, 64} {
					key := fmt.Sprintf("%s/%s/%s/n%d", a.name, fam, sc, n)
					const seed = 1
					res, err := sim.Run(a.new(), config.Generate(fam, n, seed), sim.DefaultOptions(sched.ByName(sc), seed))
					if err != nil {
						t.Fatalf("%s: %v", key, err)
					}
					check(key, resultDigest(t, res))
				}
			}
		}
	}
	for _, c := range []struct {
		algo   string
		new    func() model.Algorithm
		fam    config.Family
		jitter float64
	}{
		{"logvis", logvis, config.Uniform, 0},
		{"logvis", logvis, config.Line, 0},
		{"seqvis", seqvis, config.Uniform, 0},
		{"circlevis", func() model.Algorithm { return circlevis.NewCircleVis() }, config.Uniform, 0},
		{"logvis", logvis, config.Uniform, 1e-6},
	} {
		const n, seed = 192, 1
		key := fmt.Sprintf("%s/%s/async-random/n%d", c.algo, c.fam, n)
		opt := sim.DefaultOptions(sched.NewAsyncRandom(), seed)
		if c.jitter > 0 {
			key += fmt.Sprintf("/jitter=%g", c.jitter)
			opt.SensorJitter = c.jitter
		}
		res, err := sim.Run(c.new(), config.Generate(c.fam, n, seed), opt)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		// With two procs for this one run in flight the engine
		// pipelines, and its own snapshot then serves no Look.
		if procs := runtime.GOMAXPROCS(0); procs > 1 && res.Kernel.RowsComputed+res.Kernel.RowsReused != 0 {
			t.Errorf("%s at %d procs: the engine snapshot served %d rows, want a pipelined run",
				key, procs, res.Kernel.RowsComputed+res.Kernel.RowsReused)
		}
		check(key, resultDigest(t, withoutKernel(res)))
	}
	if seen != len(resultDigests) {
		t.Errorf("ran %d cells, table has %d", seen, len(resultDigests))
	}
}
