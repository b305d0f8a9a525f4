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
// The n24 and n64 rows hash Result.Kernel too, whose row counters count
// only the rows the engine's snapshot computed or revalidated. They
// were last re-blessed when Looks taken while the world is known to be
// completely visible stopped building rows: the counters dropped by
// design, and the digests of every row without Kernel stayed identical
// at one proc and at four.
//
// The n192 rows, which add CircleVis and sensor jitter, are large
// enough to pipeline Look and Compute on the engine's compute workers
// whenever the test has two procs to itself, and look and compute inline
// at one; they hash every field but Kernel (see withoutKernel). Run the
// test at -cpu 1,4 to pin both ways against the same digest.
var resultDigests = map[string]string{
	"logvis/uniform/async-random/n24":      "2b2c8dcb65d3c546",
	"logvis/uniform/async-random/n64":      "42c1c5a854899d35",
	"logvis/uniform/async-stale/n24":       "46af0c4025e07bb1",
	"logvis/uniform/async-stale/n64":       "60b48babc0d0e106",
	"logvis/uniform/ssync/n24":             "ef12bcedced30216",
	"logvis/uniform/ssync/n64":             "3b60da203bdefb72",
	"logvis/clustered/async-random/n24":    "ed19677efd671a8b",
	"logvis/clustered/async-random/n64":    "353f211115c35d1c",
	"logvis/clustered/async-stale/n24":     "1971c16a91451e1e",
	"logvis/clustered/async-stale/n64":     "78e06255faae8df7",
	"logvis/clustered/ssync/n24":           "fb0348c08abd2383",
	"logvis/clustered/ssync/n64":           "1e07d4328f385bf1",
	"logvis/line/async-random/n24":         "e40c5f61db9bcd83",
	"logvis/line/async-random/n64":         "4adba078b7058d59",
	"logvis/line/async-stale/n24":          "fce7ecdea2b59f1c",
	"logvis/line/async-stale/n64":          "4ebc632d9af989e8",
	"logvis/line/ssync/n24":                "61652f121f38225e",
	"logvis/line/ssync/n64":                "f3aea558483e4666",
	"logvis/line-even/async-random/n24":    "aed12a71792a42c1",
	"logvis/line-even/async-random/n64":    "d86a9b1b0d90f9fa",
	"logvis/line-even/async-stale/n24":     "9ea72ad18bacea3d",
	"logvis/line-even/async-stale/n64":     "bc4600af07efd19b",
	"logvis/line-even/ssync/n24":           "a278362ff7cce9ad",
	"logvis/line-even/ssync/n64":           "256a87407d596dfa",
	"logvis/circle/async-random/n24":       "0c834123cb44f94c",
	"logvis/circle/async-random/n64":       "9971c74576dd9bf4",
	"logvis/circle/async-stale/n24":        "194e726d3342e121",
	"logvis/circle/async-stale/n64":        "aa39c2ad19528fc8",
	"logvis/circle/ssync/n24":              "22dae1ce6fe1cf79",
	"logvis/circle/ssync/n64":              "5d398ee8713d0462",
	"logvis/onion/async-random/n24":        "3f7394dc31b1b1ff",
	"logvis/onion/async-random/n64":        "be6a33fdf2d3ccb9",
	"logvis/onion/async-stale/n24":         "39a5b345904de1b2",
	"logvis/onion/async-stale/n64":         "ec3bb95655a09a18",
	"logvis/onion/ssync/n24":               "ca0206aa8b3526d2",
	"logvis/onion/ssync/n64":               "92f27dc3912ce69f",
	"logvis/grid/async-random/n24":         "cb936cdb66dff991",
	"logvis/grid/async-random/n64":         "b9cd231a40c506f4",
	"logvis/grid/async-stale/n24":          "b407c812e98417ec",
	"logvis/grid/async-stale/n64":          "8ef1a964eb973711",
	"logvis/grid/ssync/n24":                "c44b1745b167f987",
	"logvis/grid/ssync/n64":                "13da4c569e474c47",
	"logvis/two-clusters/async-random/n24": "f17b6b34bab64311",
	"logvis/two-clusters/async-random/n64": "327db68ece78f897",
	"logvis/two-clusters/async-stale/n24":  "c3ca6baff8451384",
	"logvis/two-clusters/async-stale/n64":  "925ab393d4e1f5f5",
	"logvis/two-clusters/ssync/n24":        "5de0b4463e6b6aa5",
	"logvis/two-clusters/ssync/n64":        "9eb6b4a9a91684dd",
	"logvis/wedge/async-random/n24":        "8aed2c33667040bb",
	"logvis/wedge/async-random/n64":        "793288af04d3901f",
	"logvis/wedge/async-stale/n24":         "bc89b1113f9fc6b9",
	"logvis/wedge/async-stale/n64":         "5bc2eba0b98ddaaf",
	"logvis/wedge/ssync/n24":               "c68f66ed1e5d065c",
	"logvis/wedge/ssync/n64":               "c00903aaf5258fda",
	"logvis/spokes/async-random/n24":       "7cd2b4380c639f59",
	"logvis/spokes/async-random/n64":       "8b2a2fef23eb47f6",
	"logvis/spokes/async-stale/n24":        "7e7f3ba4f0d89413",
	"logvis/spokes/async-stale/n64":        "ffda351a8e0e5a94",
	"logvis/spokes/ssync/n24":              "6b41ee07d4575155",
	"logvis/spokes/ssync/n64":              "d4e00bf19f8a7d6a",
	"seqvis/uniform/async-random/n24":      "238195f76261e959",
	"seqvis/uniform/async-random/n64":      "a32c54e8903ef3b4",
	"seqvis/uniform/async-stale/n24":       "c17d7333292de019",
	"seqvis/uniform/async-stale/n64":       "f42ddc01be05efc1",
	"seqvis/uniform/ssync/n24":             "dd8c51077b083a51",
	"seqvis/uniform/ssync/n64":             "5254b05a5c5266c7",
	"seqvis/clustered/async-random/n24":    "4f4b285ddfbc9e26",
	"seqvis/clustered/async-random/n64":    "e5212452652040fd",
	"seqvis/clustered/async-stale/n24":     "5c85d866c74f797b",
	"seqvis/clustered/async-stale/n64":     "1e200b34b7758926",
	"seqvis/clustered/ssync/n24":           "c34cdef8c7b2512e",
	"seqvis/clustered/ssync/n64":           "6d77c630945ae43a",
	"seqvis/line/async-random/n24":         "adab01c42640a55e",
	"seqvis/line/async-random/n64":         "79b9fa42cb9e0480",
	"seqvis/line/async-stale/n24":          "320efd96c01f3330",
	"seqvis/line/async-stale/n64":          "bfbb64a4b41da04a",
	"seqvis/line/ssync/n24":                "f61461d2dd839fcf",
	"seqvis/line/ssync/n64":                "563ef2e7a2de7e64",
	"seqvis/line-even/async-random/n24":    "28aba44581cdb7b1",
	"seqvis/line-even/async-random/n64":    "b57c0e6c1b22c747",
	"seqvis/line-even/async-stale/n24":     "ae5dc37cf6299170",
	"seqvis/line-even/async-stale/n64":     "a7f0e2aa75a7522f",
	"seqvis/line-even/ssync/n24":           "9c61a094fb3458cb",
	"seqvis/line-even/ssync/n64":           "2bf433c0309b25cb",
	"seqvis/circle/async-random/n24":       "5e9da67dfa7b3cfd",
	"seqvis/circle/async-random/n64":       "bbd10c6ffd62bb4f",
	"seqvis/circle/async-stale/n24":        "7c7ce2dd3eae0993",
	"seqvis/circle/async-stale/n64":        "a0a03b8b80727f3d",
	"seqvis/circle/ssync/n24":              "0e9b18af89bd1008",
	"seqvis/circle/ssync/n64":              "c42352be8d1a2340",
	"seqvis/onion/async-random/n24":        "0c42915492a0f168",
	"seqvis/onion/async-random/n64":        "48c05bcb6c728317",
	"seqvis/onion/async-stale/n24":         "ce82d016093cbe76",
	"seqvis/onion/async-stale/n64":         "149bd6e2ae3eb0a7",
	"seqvis/onion/ssync/n24":               "02b0e4f8d0d8609d",
	"seqvis/onion/ssync/n64":               "d58f19e97926351a",
	"seqvis/grid/async-random/n24":         "2cd74392ce60288f",
	"seqvis/grid/async-random/n64":         "e99e2ef9c9237ce5",
	"seqvis/grid/async-stale/n24":          "ff8c3f84e724faed",
	"seqvis/grid/async-stale/n64":          "99f98bd921bba8f9",
	"seqvis/grid/ssync/n24":                "f47b4e0256933474",
	"seqvis/grid/ssync/n64":                "34020f4bfce84fc5",
	"seqvis/two-clusters/async-random/n24": "9080c676ac771c86",
	"seqvis/two-clusters/async-random/n64": "a9e0e1fb03ae3ff4",
	"seqvis/two-clusters/async-stale/n24":  "a7f97e8eb0c35791",
	"seqvis/two-clusters/async-stale/n64":  "1aa12fac5b593763",
	"seqvis/two-clusters/ssync/n24":        "e418023af5f9d0b3",
	"seqvis/two-clusters/ssync/n64":        "f6dea094741d92fe",
	"seqvis/wedge/async-random/n24":        "13bdfdf96b55a209",
	"seqvis/wedge/async-random/n64":        "65a75e78bd8569e8",
	"seqvis/wedge/async-stale/n24":         "52e794feb05404ad",
	"seqvis/wedge/async-stale/n64":         "9ca0d1985b3058be",
	"seqvis/wedge/ssync/n24":               "1243a492eb21f42a",
	"seqvis/wedge/ssync/n64":               "090e2b9b61485ecb",
	"seqvis/spokes/async-random/n24":       "af9832702d855576",
	"seqvis/spokes/async-random/n64":       "29a8f557bcbf2330",
	"seqvis/spokes/async-stale/n24":        "856e7827793c7164",
	"seqvis/spokes/async-stale/n64":        "a80f83d3e1201ab7",
	"seqvis/spokes/ssync/n24":              "e61f7fbe6e6a5034",
	"seqvis/spokes/ssync/n64":              "c079a98acd485235",

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
