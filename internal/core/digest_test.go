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
// the rows the engine built and the rows it served again because no
// robot had moved since (see sim.KernelStats). They were last
// re-blessed when the engine's incremental snapshot gave way to one row
// buffer per robot: the counters changed by design, and the digests of
// every row without Kernel stayed identical at one proc and at four.
//
// The n192 rows, which add CircleVis and sensor jitter, are large
// enough to pipeline Look and Compute on the engine's compute workers
// whenever the test has two procs to itself, and look and compute inline
// at one; they hash every field but Kernel (see withoutKernel). Run the
// test at -cpu 1,4 to pin both ways against the same digest.
var resultDigests = map[string]string{
	"logvis/uniform/async-random/n24":      "d0cf24db1ce895cf",
	"logvis/uniform/async-random/n64":      "b9ba959800ded81c",
	"logvis/uniform/async-stale/n24":       "46af0c4025e07bb1",
	"logvis/uniform/async-stale/n64":       "60b48babc0d0e106",
	"logvis/uniform/ssync/n24":             "fd240169a67dbd88",
	"logvis/uniform/ssync/n64":             "1d9083148d274592",
	"logvis/clustered/async-random/n24":    "d96a895338a4f543",
	"logvis/clustered/async-random/n64":    "2b185d2b6d747d06",
	"logvis/clustered/async-stale/n24":     "1971c16a91451e1e",
	"logvis/clustered/async-stale/n64":     "78e06255faae8df7",
	"logvis/clustered/ssync/n24":           "068db018350b53b2",
	"logvis/clustered/ssync/n64":           "e82ce25e5c5ca2a5",
	"logvis/line/async-random/n24":         "dcd9b02af359a488",
	"logvis/line/async-random/n64":         "3718ca55c290f206",
	"logvis/line/async-stale/n24":          "fce7ecdea2b59f1c",
	"logvis/line/async-stale/n64":          "4ebc632d9af989e8",
	"logvis/line/ssync/n24":                "d3cdd933e96f1d0b",
	"logvis/line/ssync/n64":                "a5e2f6981b9cae45",
	"logvis/line-even/async-random/n24":    "b65e49365d11f331",
	"logvis/line-even/async-random/n64":    "14e7a352818b67cb",
	"logvis/line-even/async-stale/n24":     "47f67abaab773dce",
	"logvis/line-even/async-stale/n64":     "4db263182842880b",
	"logvis/line-even/ssync/n24":           "474b60937e0913cb",
	"logvis/line-even/ssync/n64":           "cc0753fb117465b5",
	"logvis/circle/async-random/n24":       "673f39b114f7407a",
	"logvis/circle/async-random/n64":       "2c62b1394713199f",
	"logvis/circle/async-stale/n24":        "194e726d3342e121",
	"logvis/circle/async-stale/n64":        "aa39c2ad19528fc8",
	"logvis/circle/ssync/n24":              "5b8c9580785f48d2",
	"logvis/circle/ssync/n64":              "35b91607a5851f8e",
	"logvis/onion/async-random/n24":        "504c47aca32d9351",
	"logvis/onion/async-random/n64":        "2c7f50560d494ad0",
	"logvis/onion/async-stale/n24":         "39a5b345904de1b2",
	"logvis/onion/async-stale/n64":         "ec3bb95655a09a18",
	"logvis/onion/ssync/n24":               "57b86b3adc47d58b",
	"logvis/onion/ssync/n64":               "1bab7ff8afd25905",
	"logvis/grid/async-random/n24":         "dde14f9f3624fc6e",
	"logvis/grid/async-random/n64":         "13e4660c83c72b7e",
	"logvis/grid/async-stale/n24":          "b407c812e98417ec",
	"logvis/grid/async-stale/n64":          "8ef1a964eb973711",
	"logvis/grid/ssync/n24":                "5cd8ab1682ccd9e8",
	"logvis/grid/ssync/n64":                "8d6b4b3e7436c5f1",
	"logvis/two-clusters/async-random/n24": "86c89964ef3d4823",
	"logvis/two-clusters/async-random/n64": "e3e37be09c74a361",
	"logvis/two-clusters/async-stale/n24":  "c3ca6baff8451384",
	"logvis/two-clusters/async-stale/n64":  "c54e842134ef826d",
	"logvis/two-clusters/ssync/n24":        "4a3792a0836f1ae1",
	"logvis/two-clusters/ssync/n64":        "64a73021fef5029d",
	"logvis/wedge/async-random/n24":        "f3c99bee21a9e7de",
	"logvis/wedge/async-random/n64":        "08a420f8f7b5c144",
	"logvis/wedge/async-stale/n24":         "bc89b1113f9fc6b9",
	"logvis/wedge/async-stale/n64":         "5bc2eba0b98ddaaf",
	"logvis/wedge/ssync/n24":               "f9b4591908b67a76",
	"logvis/wedge/ssync/n64":               "db0c8265c8e0459d",
	"logvis/spokes/async-random/n24":       "3de8041d0ceb62d0",
	"logvis/spokes/async-random/n64":       "31b5230d2b81e5c2",
	"logvis/spokes/async-stale/n24":        "3197511a85661a89",
	"logvis/spokes/async-stale/n64":        "2c37f548dc39da21",
	"logvis/spokes/ssync/n24":              "5104b5970d942268",
	"logvis/spokes/ssync/n64":              "4fcaa9f0d7b87fe8",
	"seqvis/uniform/async-random/n24":      "dc33f2a01899ed58",
	"seqvis/uniform/async-random/n64":      "45bcd9a2834e5e96",
	"seqvis/uniform/async-stale/n24":       "c17d7333292de019",
	"seqvis/uniform/async-stale/n64":       "f42ddc01be05efc1",
	"seqvis/uniform/ssync/n24":             "1d734877b949ce76",
	"seqvis/uniform/ssync/n64":             "f376839c4c73b48e",
	"seqvis/clustered/async-random/n24":    "2ecfd516789f932a",
	"seqvis/clustered/async-random/n64":    "56b605db6bf59e91",
	"seqvis/clustered/async-stale/n24":     "5c85d866c74f797b",
	"seqvis/clustered/async-stale/n64":     "1e200b34b7758926",
	"seqvis/clustered/ssync/n24":           "dea80ffbd96182c2",
	"seqvis/clustered/ssync/n64":           "4ca255088e122ebe",
	"seqvis/line/async-random/n24":         "ffb59614a896c7c7",
	"seqvis/line/async-random/n64":         "820c2264ee5d3f0b",
	"seqvis/line/async-stale/n24":          "320efd96c01f3330",
	"seqvis/line/async-stale/n64":          "bfbb64a4b41da04a",
	"seqvis/line/ssync/n24":                "fdffd335ac3cdc22",
	"seqvis/line/ssync/n64":                "417d7087607d6428",
	"seqvis/line-even/async-random/n24":    "fd3a1a31f7e4f702",
	"seqvis/line-even/async-random/n64":    "b1ce9db6984245ed",
	"seqvis/line-even/async-stale/n24":     "a9146a27a3e88ac4",
	"seqvis/line-even/async-stale/n64":     "8823d59e34ac3869",
	"seqvis/line-even/ssync/n24":           "38b2c72a612f79e9",
	"seqvis/line-even/ssync/n64":           "c04d4483bd11b5bb",
	"seqvis/circle/async-random/n24":       "c25bb1d9b7a7b461",
	"seqvis/circle/async-random/n64":       "a4b078a3aa981a6c",
	"seqvis/circle/async-stale/n24":        "7c7ce2dd3eae0993",
	"seqvis/circle/async-stale/n64":        "a0a03b8b80727f3d",
	"seqvis/circle/ssync/n24":              "9e0f14ea6e003bdb",
	"seqvis/circle/ssync/n64":              "66ade85542ba344d",
	"seqvis/onion/async-random/n24":        "6e0a3046cff107d6",
	"seqvis/onion/async-random/n64":        "557140dbfd722024",
	"seqvis/onion/async-stale/n24":         "ce82d016093cbe76",
	"seqvis/onion/async-stale/n64":         "149bd6e2ae3eb0a7",
	"seqvis/onion/ssync/n24":               "94372c5e94010c47",
	"seqvis/onion/ssync/n64":               "973a92f64e67a925",
	"seqvis/grid/async-random/n24":         "3a580d7165985ae4",
	"seqvis/grid/async-random/n64":         "7768b469760d20ac",
	"seqvis/grid/async-stale/n24":          "ff8c3f84e724faed",
	"seqvis/grid/async-stale/n64":          "99f98bd921bba8f9",
	"seqvis/grid/ssync/n24":                "65ec7df74a320f1f",
	"seqvis/grid/ssync/n64":                "5a2145c6d7e12ea8",
	"seqvis/two-clusters/async-random/n24": "32a3ff164c298fe0",
	"seqvis/two-clusters/async-random/n64": "723058a9229b6e61",
	"seqvis/two-clusters/async-stale/n24":  "a7f97e8eb0c35791",
	"seqvis/two-clusters/async-stale/n64":  "884d2ceb33b7401a",
	"seqvis/two-clusters/ssync/n24":        "df845d09b900d32e",
	"seqvis/two-clusters/ssync/n64":        "526d08b5854fc303",
	"seqvis/wedge/async-random/n24":        "fb7c60116a47d4e1",
	"seqvis/wedge/async-random/n64":        "186b71b194020431",
	"seqvis/wedge/async-stale/n24":         "52e794feb05404ad",
	"seqvis/wedge/async-stale/n64":         "9ca0d1985b3058be",
	"seqvis/wedge/ssync/n24":               "6d80d97686b7c8c8",
	"seqvis/wedge/ssync/n64":               "1ba0cd2321294440",
	"seqvis/spokes/async-random/n24":       "03781d28b3e953a0",
	"seqvis/spokes/async-random/n64":       "87294f4764dcbed0",
	"seqvis/spokes/async-stale/n24":        "466f46a522d8b82e",
	"seqvis/spokes/async-stale/n64":        "d8c89a2e4fb5fc5b",
	"seqvis/spokes/ssync/n24":              "57d0433ea864bf67",
	"seqvis/spokes/ssync/n64":              "6a366f5e85fd032f",

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
		// pipelines, and its own rows then serve no Look.
		if procs := runtime.GOMAXPROCS(0); procs > 1 && res.Kernel.RowsComputed+res.Kernel.RowsReused != 0 {
			t.Errorf("%s at %d procs: the engine's own rows served %d Looks, want a pipelined run",
				key, procs, res.Kernel.RowsComputed+res.Kernel.RowsReused)
		}
		check(key, resultDigest(t, withoutKernel(res)))
	}
	if seen != len(resultDigests) {
		t.Errorf("ran %d cells, table has %d", seen, len(resultDigests))
	}
}
