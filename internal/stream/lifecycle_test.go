package stream_test

// Lifecycle-corner pins for the contracts the goleak/chanown analyzers
// formalize statically: Release and Subscriber.Close are idempotent
// (each returns its counter contribution exactly once, however many
// times callers race the teardown), a closed subscriber's Next fails
// fast with ErrClosed, and Subscribe on a finished hub serves the
// retained history to EOF instead of parking a goroutine forever.

import (
	"context"
	"fmt"
	"io"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/sim"
	"luxvis/internal/stream"
)

// publishN pushes n event frames through a hub via its observer
// interface (RunStart first, so frame 1 is the header).
func publishN(h *stream.Hub, n int) {
	h.RunStart(sim.RunInfo{Algorithm: "logvis", Scheduler: "fsync", N: 4, Seed: 1})
	for i := 0; i < n; i++ {
		h.Event(lifecycleEvent(i))
	}
}

func lifecycleEvent(i int) sim.TraceEvent {
	return sim.TraceEvent{Event: i, Robot: i % 4, Kind: "look", Pos: geom.Pt(float64(i), 0)}
}

// TestHubReleaseIdempotent: Release returns the hub's retained-depth
// contribution to the shared counters exactly once; a second (or
// tenth) Release must not drive the gauge negative.
func TestHubReleaseIdempotent(t *testing.T) {
	var ctr stream.Counters
	h := stream.NewHub(stream.HubOptions{Counters: &ctr})
	publishN(h, 5)
	h.Close(nil)

	if got := ctr.Snapshot().HubDepth; got != 6 {
		t.Fatalf("hubDepth after publishing = %d; want 6 (header + 5 events)", got)
	}
	for i := 0; i < 3; i++ {
		h.Release()
		if got := ctr.Snapshot().HubDepth; got != 0 {
			t.Fatalf("hubDepth after Release #%d = %d; want 0", i+1, got)
		}
	}
}

// TestSubscriberCloseIdempotent: Close returns the subscriber's gauge
// slot exactly once, and a closed subscriber's Next is an immediate
// ErrClosed, not a parked goroutine — the dynamic half of the goleak
// contract.
func TestSubscriberCloseIdempotent(t *testing.T) {
	var ctr stream.Counters
	h := stream.NewHub(stream.HubOptions{Counters: &ctr})
	defer h.Release()
	publishN(h, 2)

	s := h.Subscribe(0)
	if got := ctr.Snapshot().Subscribers; got != 1 {
		t.Fatalf("subscribers gauge after Subscribe = %d; want 1", got)
	}
	for i := 0; i < 3; i++ {
		s.Close()
		if got := ctr.Snapshot().Subscribers; got != 0 {
			t.Fatalf("subscribers gauge after Close #%d = %d; want 0", i+1, got)
		}
	}
	if _, err := s.Next(context.Background()); err != stream.ErrClosed {
		t.Fatalf("Next after Close = %v; want ErrClosed", err)
	}
	h.Close(nil)
}

// TestSubscribeAfterClose: subscribing to a finished hub is the
// replay-from-cache path — the subscriber drains the retained history
// and then sees io.EOF without ever blocking.
func TestSubscribeAfterClose(t *testing.T) {
	var ctr stream.Counters
	h := stream.NewHub(stream.HubOptions{Counters: &ctr})
	defer h.Release()
	publishN(h, 3)
	h.Close(nil)

	s := h.Subscribe(0)
	defer s.Close()
	var seqs []uint64
	ctx := context.Background()
	for {
		f, err := s.Next(ctx)
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		seqs = append(seqs, f.Seq)
	}
	if want := fmt.Sprint([]uint64{1, 2, 3, 4}); fmt.Sprint(seqs) != want {
		t.Fatalf("post-Close Subscribe drained seqs %v; want %s", seqs, want)
	}
	// The hub is done: a publish arriving now (a straggling observer
	// callback) is dropped, and the drained subscriber keeps seeing EOF.
	h.Event(lifecycleEvent(99))
	if _, err := s.Next(ctx); err != io.EOF {
		t.Fatalf("Next after post-Close publish = %v; want io.EOF (publish after Close must be dropped)", err)
	}
}

// TestLifecycleCountersBalance: a full create/publish/subscribe/close/
// release cycle leaves every gauge at zero — the invariant that makes
// the Prometheus families trustworthy across many runs.
func TestLifecycleCountersBalance(t *testing.T) {
	var ctr stream.Counters
	for i := 0; i < 3; i++ {
		h := stream.NewHub(stream.HubOptions{Counters: &ctr})
		publishN(h, 4)
		s1, s2 := h.Subscribe(0), h.Subscribe(0)
		h.Close(nil)
		s1.Close()
		s2.Close()
		s2.Close() // double close inside the loop: must stay balanced
		h.Release()
		h.Release()
	}
	snap := ctr.Snapshot()
	if snap.Subscribers != 0 || snap.HubDepth != 0 || snap.HubsOpen != 0 {
		t.Fatalf("gauges after full lifecycles: subscribers=%d hubDepth=%d hubsOpen=%d; want all 0",
			snap.Subscribers, snap.HubDepth, snap.HubsOpen)
	}
}
