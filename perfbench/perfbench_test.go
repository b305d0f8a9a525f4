package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"slices"
	"testing"

	"luxvis/internal/circlevis"
	"luxvis/internal/core"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

func digestJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// The serve plan is a pure function of the seed: byte-identical on every
// call and on every build (the digest is pinned), different per seed.
func TestPlanByteStablePerSeed(t *testing.T) {
	a, b := makePlan(7, 2), makePlan(7, 2)
	if digestJSON(t, a) != digestJSON(t, b) {
		t.Fatal("two plans for seed 7 differ")
	}
	if got, want := digestJSON(t, a), "6ed98b47d4688925a4a0ddf15b842b56c0f939ea5b6e91d5a097f820647e951e"; got != want {
		t.Errorf("plan digest for seed 7 = %s, want %s", got, want)
	}
	c := makePlan(8, 2)
	if digestJSON(t, a) == digestJSON(t, c) {
		t.Error("seeds 7 and 8 gave the same plan")
	}
}

// Every seed's plan runs exactly the catalogue, each run once; every
// planned hit repeats a key its own client completed earlier with a
// synchronous run; hits stay at most a third of each client's requests
// so far; and the plan never inserts more keys than the cache holds.
func TestPlanShape(t *testing.T) {
	inCatalogue := map[planned]bool{}
	for _, runs := range catalogue(3) {
		for _, p := range runs {
			p.Kind = ""
			inCatalogue[p] = true
		}
	}
	for seed := int64(1); seed <= 20; seed++ {
		plan := makePlan(seed, 3)
		keys := map[planned]bool{}
		requests, streams := 0, 0
		for c, reqs := range plan {
			done := map[planned]bool{}
			hits := 0
			requests += len(reqs)
			for i, p := range reqs {
				if p.Kind == kindStream {
					streams++
				}
				key := p
				key.Kind = ""
				switch p.Kind {
				case kindHit:
					hits++
					if !done[key] {
						t.Fatalf("seed %d client %d request %d: hit on a key the client never ran", seed, c, i)
					}
				case kindMiss, kindStream:
					if keys[key] || !inCatalogue[key] {
						t.Fatalf("seed %d client %d request %d: %s is a repeated or unknown run", seed, c, i, p.Kind)
					}
					keys[key] = true
					if p.Kind == kindMiss {
						done[key] = true
					}
				}
				if 3*hits > i+1 {
					t.Fatalf("seed %d client %d: %d hits in %d requests", seed, c, hits, i+1)
				}
			}
		}
		if len(keys) != catalogueRuns || catalogueRuns > cacheEntries {
			t.Fatalf("seed %d: %d keys", seed, len(keys))
		}
		if requests != catalogueRuns+planHits || streams != planStreams {
			t.Fatalf("seed %d: %d requests, %d streams", seed, requests, streams)
		}
	}
}

// An engine workload's run list is fixed: every seed yields the same
// runs, byte for byte, and the seed only orders them.
func TestRunListByteStable(t *testing.T) {
	for name, w := range engineWorkloads {
		a, b := w.runList(3), w.runList(3)
		if digestJSON(t, a) != digestJSON(t, b) {
			t.Fatalf("%s: two run lists for seed 3 differ", name)
		}
		bySeed := map[int64]string{}
		for _, in := range a {
			bySeed[in.Seed] = digestJSON(t, in)
		}
		for _, in := range w.runList(4) {
			if bySeed[in.Seed] != digestJSON(t, in) {
				t.Fatalf("%s: run %d differs between seeds 3 and 4", name, in.Seed)
			}
		}
		if len(bySeed) != len(w.seeds) {
			t.Fatalf("%s: run list covers %d of %d seeds", name, len(bySeed), len(w.seeds))
		}
	}
	want := map[string]string{
		"logvis-async-n192":    "acdc4c116f3c38857785fa17bb54bbcaf8d29c8d8bbad823ee86a644709bb4e5",
		"circlevis-stale-n512": "86cafe2b7b98e014ba6d39ab124ce4bd1bb6031f85e10064e1d9fd2b11f2d57f",
	}
	for name, w := range engineWorkloads {
		if got := digestJSON(t, w.runList(1)); got != want[name] {
			t.Errorf("%s: run list digest for seed 1 = %s, want %s", name, got, want[name])
		}
	}
}

// A decorated and observed run simulates exactly what the plain run
// does, and its layer self times add up to its wall time.
func TestTracedRunMatchesPlain(t *testing.T) {
	small := []engineWorkload{
		{layer: "core", algorithm: func() model.Algorithm { return core.NewLogVis() },
			scheduler: func() sched.Scheduler { return sched.NewAsyncRandom() }, n: 24, seeds: []int64{1, 2}},
		{layer: "circlevis", algorithm: func() model.Algorithm { return circlevis.NewCircleVis() },
			scheduler: func() sched.Scheduler { return sched.NewAsyncStale() }, n: 32, seeds: []int64{1, 2}},
	}
	for _, w := range small {
		in := w.runList(1)
		plain := w.runBatch(in, false)
		traced := w.runBatch(in, true)
		if len(plain.failures)+len(traced.failures) > 0 {
			t.Fatalf("%s: failures %v %v", w.layer, plain.failures, traced.failures)
		}
		if !slices.Equal(plain.outcomes, traced.outcomes) {
			t.Fatalf("%s: traced run simulated different work", w.layer)
		}
		l := traced.layers
		if l.nextCalls != int64(plain.outcomes[0].events+plain.outcomes[1].events) {
			t.Errorf("%s: %d Next calls for %d events", w.layer, l.nextCalls, plain.outcomes[0].events+plain.outcomes[1].events)
		}
		sum := 0.0
		for k, v := range selfTimes(l) {
			if v < 0 {
				t.Errorf("%s: negative self time %s=%g", w.layer, k, v)
			}
			sum += v
		}
		if wall := l.wall.Seconds(); math.Abs(sum-wall) > 1e-6*wall {
			t.Errorf("%s: self times sum to %g s, traced wall is %g s", w.layer, sum, wall)
		}
	}
}

// The metric tables the benchmark prints are exactly BENCHMARK.json's.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }       `json:"workloads"`
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want map[string]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", kind, len(got), len(want))
		}
		for _, m := range got {
			if want[m.Name] != m.Unit {
				t.Errorf("%s: %s has unit %q in BENCHMARK.json, %q here", kind, m.Name, m.Unit, want[m.Name])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	all := workloads()
	if len(spec.Workloads) != len(all) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(all))
	}
	for _, w := range spec.Workloads {
		if all[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}

// A prefix of a plan runs against a real server with every check
// passing, and the server counts exactly the planned hits.
func TestServePlanPrefix(t *testing.T) {
	plan := makePlan(1, 2)
	hits := 0
	for c := range plan {
		plan[c] = plan[c][:24]
		for _, p := range plan[c] {
			if p.Kind == kindHit {
				hits++
			}
		}
	}
	r := runPlan(plan, true)
	if len(r.samples) != 48 {
		t.Fatalf("%d samples, want 48", len(r.samples))
	}
	for _, s := range r.samples {
		if s.failure != "" {
			t.Error(s.failure)
		}
	}
	if hits == 0 || r.scrape["cache_hits"] != float64(hits) {
		t.Errorf("server counted %v cache hits, plan has %d", r.scrape["cache_hits"], hits)
	}
}
