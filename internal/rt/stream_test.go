package rt

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"sync"
	"testing"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/stream"
	"luxvis/internal/trace"
)

// TestHubAttachedToConcurrentRuntime attaches a stream hub as the
// Observer of the goroutine-per-robot runtime, where CycleEnd arrives
// from n robot goroutines and EpochEnd from the monitor goroutine
// concurrently. rt emits no per-event stream, so the broadcast is the
// header, and the end note carries the run's totals. The test (run
// under -race in CI) pins the goroutine-safety contract on both sides:
// concurrent callbacks never corrupt the hub, every subscriber drains
// the header to io.EOF, and RunEnd closes the stream with the result.
func TestHubAttachedToConcurrentRuntime(t *testing.T) {
	var ctr stream.Counters
	hub := stream.NewHub(stream.HubOptions{Counters: &ctr})
	defer hub.Release()

	const nSubs = 8
	type drain struct {
		frames []stream.Frame
		err    error
	}
	results := make([]drain, nSubs)
	var wg sync.WaitGroup
	ctx := context.Background()
	for i := 0; i < nSubs; i++ {
		sub := hub.Subscribe(0)
		wg.Add(1)
		go func(i int, sub *stream.Subscriber) {
			defer wg.Done()
			defer sub.Close()
			for {
				f, err := sub.Next(ctx)
				if err != nil {
					results[i].err = err
					return
				}
				results[i].frames = append(results[i].frames, f)
			}
		}(i, sub)
	}

	pts := config.Generate(config.Uniform, 10, 11)
	res, err := Run(core.NewLogVis(), pts, Options{
		Seed:      11,
		MaxWall:   20 * time.Second,
		MeanDelay: 50 * time.Microsecond,
		Observer:  hub,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Reached {
		t.Fatalf("run did not stabilize: %+v", res)
	}
	wg.Wait()

	var end struct {
		Kind    string `json:"kind"`
		Reached bool   `json:"reached"`
		Epochs  int    `json:"epochs"`
	}
	if err := json.Unmarshal(hub.EndNote(), &end); err != nil {
		t.Fatalf("end note after RunEnd does not decode: %v", err)
	}
	if end.Kind != "end" || !end.Reached || end.Epochs != res.Epochs {
		t.Errorf("end note %+v, want reached after %d epochs", end, res.Epochs)
	}

	for i := range results {
		if !errors.Is(results[i].err, io.EOF) {
			t.Fatalf("subscriber %d: drain ended with %v, want io.EOF", i, results[i].err)
		}
		frames := results[i].frames
		if len(frames) != 1 || frames[0].Seq != 1 || frames[0].Kind != "header" {
			t.Fatalf("subscriber %d: frames %+v, want the header alone at seq 1", i, frames)
		}
		var hdr trace.Header
		if err := json.Unmarshal(frames[0].Data, &hdr); err != nil {
			t.Fatalf("subscriber %d: header does not decode: %v", i, err)
		}
		if hdr.Scheduler != "rt-async" || hdr.N != 10 {
			t.Errorf("subscriber %d: header %+v", i, hdr)
		}
	}

	if snap := ctr.Snapshot(); snap.FramesTotal != 1 || snap.DroppedTotal != 0 || snap.HubsOpen != 0 {
		t.Errorf("counters %+v, want one frame, no drops, no open hub", snap)
	}
}
