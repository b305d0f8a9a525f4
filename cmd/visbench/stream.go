package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
	"luxvis/internal/stream"
)

// streamFanoutSubs extends -bench-stream's fan-out sweep past the
// gate's checkBaselineSubs: engine overhead with one hot run broadcast
// to this many draining subscribers. These counts are measured in
// rounds of their own, so the heap a 4096-subscriber run leaves behind
// does not bias the ratios the gate compares (measured with them in
// the same rounds, the recorded 64-subscriber ratio read about 2.5
// where the gate measured 3.0-3.7).
var streamFanoutSubs = []int{1024, 4096}

// StreamBenchHost identifies the measuring machine.
type StreamBenchHost struct {
	GoVersion string `json:"goVersion"`
	GOOS      string `json:"goos"`
	GOARCH    string `json:"goarch"`
	NumCPU    int    `json:"numCPU"`
}

// StreamBenchRow is one subscriber count's measurements against the
// shared no-observer baseline.
type StreamBenchRow struct {
	Subscribers int `json:"subscribers"`
	// EngineNs is the engine run's wall time with the hub attached and
	// all subscribers draining concurrently (the median run of
	// streamGateRounds rounds; the other fields are that run's).
	EngineNs int64 `json:"engineNs"`
	// OverheadPct = (engineNs - baselineNs) / baselineNs * 100: what
	// attaching the hub and fan-out costs the hot run.
	OverheadPct float64 `json:"overheadPct"`
	// DrainNs is the wall time until every subscriber finished draining
	// (>= engineNs; subscribers keep reading after the run ends).
	DrainNs int64 `json:"drainNs"`
	// Frames published and encode time per frame, from the hub counters.
	Frames           int64 `json:"frames"`
	EncodeNsPerFrame int64 `json:"encodeNsPerFrame"`
	// Dropped counts frames lost across all subscribers: under the
	// drop-oldest policy a frame is lost only once it has left both the
	// subscriber's ring and the hub's history refill window.
	Dropped int64 `json:"dropped"`
}

// StreamBenchReport is the BENCH_stream.json schema.
type StreamBenchReport struct {
	Host StreamBenchHost `json:"host"`
	// The measured run: one deterministic engine scenario.
	Algorithm  string           `json:"algorithm"`
	Scheduler  string           `json:"scheduler"`
	N          int              `json:"n"`
	Seed       int64            `json:"seed"`
	BaselineNs int64            `json:"baselineNs"`
	Fanout     []StreamBenchRow `json:"fanout"`
	Notes      []string         `json:"notes"`
}

const (
	streamBenchN    = 64
	streamBenchSeed = int64(7)
)

// streamBenchRun executes the canonical scenario once with the given
// observer, returning the run's wall time.
func streamBenchRun(observer sim.Observer) (time.Duration, error) {
	pts := config.Generate(config.Uniform, streamBenchN, streamBenchSeed)
	opt := sim.DefaultOptions(sched.NewAsyncRandom(), streamBenchSeed)
	opt.Observer = observer
	start := time.Now()
	_, err := sim.Run(core.NewLogVis(), pts, opt)
	return time.Since(start), err
}

// hubRun is one engine run observed by a stream hub.
type hubRun struct {
	engine, drain time.Duration
	frames        int64
	encodeNanos   int64
	dropped       int64
}

// streamHubRun runs the canonical scenario once with a hub attached and
// fanned out to subs draining subscribers, and waits for the drains.
func streamHubRun(subs int) (hubRun, error) {
	var ctr stream.Counters
	hub := stream.NewHub(stream.HubOptions{Counters: &ctr})
	var wg sync.WaitGroup
	ctx := context.Background()
	subscribers := make([]*stream.Subscriber, subs)
	for i := 0; i < subs; i++ {
		s := hub.Subscribe(0)
		subscribers[i] = s
		wg.Add(1)
		go func(s *stream.Subscriber) {
			defer wg.Done()
			for {
				if _, err := s.Next(ctx); err != nil {
					return
				}
			}
		}(s)
	}
	start := time.Now()
	engineDur, err := streamBenchRun(hub)
	if err != nil {
		return hubRun{}, err
	}
	wg.Wait()
	r := hubRun{engine: engineDur, drain: time.Since(start)}
	snap := ctr.Snapshot()
	r.frames, r.encodeNanos = snap.FramesTotal, snap.EncodeNanos
	for _, s := range subscribers {
		r.dropped += int64(s.Dropped())
		s.Close()
	}
	hub.Release()
	return r, nil
}

// measureStream runs streamGateRounds rounds, each running the bare
// engine once and then the hub once per count in subs, so host drift
// reaches every series alike. It returns the median bare run time and,
// per count in subs, the hub run with the median engine time (the
// upper middle for an even round count). -bench-stream and the
// -check-baseline gate share it, so the baseline records the statistic
// the gate compares.
func measureStream(subs []int) (bare time.Duration, hub []hubRun, err error) {
	bares := make([]time.Duration, 0, streamGateRounds)
	runs := make([][]hubRun, len(subs))
	for round := 0; round < streamGateRounds; round++ {
		d, err := streamBenchRun(nil)
		if err != nil {
			return 0, nil, err
		}
		bares = append(bares, d)
		for i, n := range subs {
			r, err := streamHubRun(n)
			if err != nil {
				return 0, nil, err
			}
			runs[i] = append(runs[i], r)
		}
	}
	slices.Sort(bares)
	for _, rs := range runs {
		slices.SortFunc(rs, func(a, b hubRun) int { return cmp.Compare(a.engine, b.engine) })
		hub = append(hub, rs[len(rs)/2])
	}
	return bares[len(bares)/2], hub, nil
}

// runStreamBench measures streaming fan-out overhead on the hot engine
// path and writes the JSON report to w.
func runStreamBench(w io.Writer) error {
	rep := StreamBenchReport{
		Host: StreamBenchHost{
			GoVersion: runtime.Version(),
			GOOS:      runtime.GOOS,
			GOARCH:    runtime.GOARCH,
			NumCPU:    runtime.NumCPU(),
		},
		Algorithm: "logvis",
		Scheduler: "async-random",
		N:         streamBenchN,
		Seed:      streamBenchSeed,
		Notes: []string{
			"baselineNs: the same run with no observer attached — the engine's raw wall time.",
			"baselineNs and engineNs are medians of " + fmt.Sprint(streamGateRounds) + " rounds, each running the bare engine once and then the hub once per subscriber count; the 1 and 64 subscriber rows come from rounds of their own, exactly as -check-baseline measures and compares them, and the larger counts from a second set of rounds.",
			"engineNs: the run's wall time with a stream hub observing and all subscribers draining concurrently; drainNs, frames, encodeNsPerFrame and dropped are that median run's.",
			"overheadPct = (engineNs - baselineNs) / baselineNs * 100: publish is one encode plus per-subscriber ring writes, never a block.",
			"dropped: frames lost across all subscribers — a frame counts only once it leaves both the subscriber's ring (default 256 frames) and the hub history (default 16384 frames, the refill window); nonzero means consumers trailed the publisher by more than the history window, not that the engine slowed down.",
			"encodeNsPerFrame: the encode-once cost shared by every subscriber.",
			"Subscriber goroutines compete for the same CPUs as the engine, so on small hosts high fan-out counts measure scheduling pressure as well as hub overhead.",
		},
	}

	bare, hub, err := measureStream(checkBaselineSubs)
	if err != nil {
		return err
	}
	_, fanout, err := measureStream(streamFanoutSubs)
	if err != nil {
		return err
	}
	rep.BaselineNs = bare.Nanoseconds()
	allSubs := append(slices.Clone(checkBaselineSubs), streamFanoutSubs...)
	for i, r := range append(hub, fanout...) {
		subs := allSubs[i]
		row := StreamBenchRow{
			Subscribers: subs,
			EngineNs:    r.engine.Nanoseconds(),
			DrainNs:     r.drain.Nanoseconds(),
			Frames:      r.frames,
			Dropped:     r.dropped,
		}
		if r.frames > 0 {
			row.EncodeNsPerFrame = r.encodeNanos / r.frames
		}
		if rep.BaselineNs > 0 {
			row.OverheadPct = float64(row.EngineNs-rep.BaselineNs) / float64(rep.BaselineNs) * 100
		}
		rep.Fanout = append(rep.Fanout, row)
		fmt.Fprintf(os.Stderr, "bench-stream: %4d subscribers: engine %8.2fms (baseline %8.2fms, %+6.1f%%), frames %d, dropped %d\n",
			subs, float64(row.EngineNs)/1e6, float64(rep.BaselineNs)/1e6, row.OverheadPct, row.Frames, row.Dropped)
	}

	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
