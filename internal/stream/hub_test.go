package stream

import (
	"context"
	"fmt"
	"io"
	"sync"
	"testing"
	"time"

	"luxvis/internal/geom"
	"luxvis/internal/sim"
)

// pump feeds a hub a synthetic run: header, n events, close.
func pump(h *Hub, n int) {
	h.RunStart(sim.RunInfo{Algorithm: "logvis", Scheduler: "fsync", N: 4, Seed: 1})
	for i := 0; i < n; i++ {
		h.Event(sim.TraceEvent{Event: i, Robot: i % 4, Kind: "look", Pos: geom.Pt(float64(i), 0)})
	}
	h.Close(nil)
}

// drain reads a subscriber to end of stream, returning the frames.
func drain(t *testing.T, s *Subscriber) []Frame {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var out []Frame
	for {
		f, err := s.Next(ctx)
		if err == io.EOF {
			return out
		}
		if err != nil {
			t.Fatalf("Next: %v", err)
		}
		out = append(out, f)
	}
}

// TestHubFanOutOrdering: every subscriber sees the same frames in the
// same order with contiguous seqs, and the payloads are shared (encoded
// once, not per subscriber).
func TestHubFanOutOrdering(t *testing.T) {
	h := NewHub(HubOptions{History: 1024})
	const subs = 8
	var got [subs][]Frame
	var wg sync.WaitGroup
	for i := 0; i < subs; i++ {
		s := h.Subscribe(0)
		defer s.Close()
		wg.Add(1)
		go func(i int, s *Subscriber) {
			defer wg.Done()
			got[i] = drain(t, s)
		}(i, s)
	}
	pump(h, 100)
	wg.Wait()

	for i := 0; i < subs; i++ {
		if len(got[i]) != 101 {
			t.Fatalf("subscriber %d got %d frames, want 101", i, len(got[i]))
		}
		for j, f := range got[i] {
			if f.Seq != uint64(j+1) {
				t.Fatalf("subscriber %d frame %d has seq %d", i, j, f.Seq)
			}
			// Same backing array as subscriber 0's frame: one encode.
			if j < len(got[0]) && &f.Data[0] != &got[0][j].Data[0] {
				t.Fatalf("subscriber %d frame %d not sharing the encoded payload", i, j)
			}
		}
		if got[i][0].Kind != "header" {
			t.Fatalf("first frame kind %q, want header", got[i][0].Kind)
		}
	}
}

// TestHubResumeFromRing: a subscriber with a Last-Event-ID cursor gets
// exactly the retained frames after it; a cursor older than the ring
// reports the gap.
func TestHubResumeFromRing(t *testing.T) {
	h := NewHub(HubOptions{History: 32})
	pump(h, 100) // frames 1..101; ring retains the last 32 (seqs 70..101)

	s := h.Subscribe(80)
	defer s.Close()
	frames := drain(t, s)
	if s.Gap() != 0 {
		t.Fatalf("resume within ring reported gap %d", s.Gap())
	}
	if len(frames) != 21 {
		t.Fatalf("got %d frames, want 21 (seqs 81..101)", len(frames))
	}
	if frames[0].Seq != 81 || frames[len(frames)-1].Seq != 101 {
		t.Fatalf("resume range [%d..%d], want [81..101]", frames[0].Seq, frames[len(frames)-1].Seq)
	}

	// Cursor far behind the ring: stream resumes at the oldest retained
	// frame and the gap is exact.
	s2 := h.Subscribe(10)
	defer s2.Close()
	frames2 := drain(t, s2)
	if frames2[0].Seq != 70 {
		t.Fatalf("truncated resume starts at %d, want 70", frames2[0].Seq)
	}
	if want := uint64(70 - 11); s2.Gap() != want {
		t.Fatalf("gap %d, want %d", s2.Gap(), want)
	}
}

// TestHubDropOldestExactCount: the drop counter equals the ring-overwrite
// count exactly. A subscriber that never reads while M frames flow
// through a ring of capacity R (with a shorter history) loses exactly M-R.
func TestHubDropOldestExactCount(t *testing.T) {
	const ringCap, total = subscriberBuf, subscriberBuf + 384 // frames incl. header
	h := NewHub(HubOptions{History: 8})
	s := h.Subscribe(0)
	defer s.Close()

	pump(h, total-1) // header + total-1 events = total frames
	if want := uint64(total - ringCap); s.Dropped() != want {
		t.Fatalf("dropped %d, want exactly %d", s.Dropped(), want)
	}
	// What remains is the newest ringCap frames, in order.
	frames := drain(t, s)
	if len(frames) != ringCap {
		t.Fatalf("drained %d frames, want %d", len(frames), ringCap)
	}
	for i, f := range frames {
		if want := uint64(total - ringCap + i + 1); f.Seq != want {
			t.Fatalf("frame %d has seq %d, want %d", i, f.Seq, want)
		}
	}
}

// TestHubStalledSubscriberNeverBlocksPublisher: the core backpressure
// contract — publishing with a subscriber that never reads completes
// promptly (the engine observer callback can never be blocked by a
// consumer). Run with -race in CI.
func TestHubStalledSubscriberNeverBlocksPublisher(t *testing.T) {
	h := NewHub(HubOptions{History: 1024})
	stalled := h.Subscribe(0)
	defer stalled.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		pump(h, 50000)
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("publisher blocked by a stalled subscriber")
	}
	// The recovery window is the hub history (1024), not the subscriber's
	// smaller ring: everything beyond it is lost, counted exactly, eagerly
	// (no Next call has happened yet).
	if want := uint64(50001 - 1024); stalled.Dropped() != want {
		t.Fatalf("dropped %d, want %d", stalled.Dropped(), want)
	}
}

// TestHubSlowConsumerRecoversFromHistory: a consumer whose own ring is
// far too small for the publish burst still receives every frame,
// because Next refills overwritten spans from the hub history. This is
// the contract that makes `curl /stream | visreplay -verify` audit
// cleanly on a live run: within the History window the stream is
// lossless no matter how bursty the publisher.
func TestHubSlowConsumerRecoversFromHistory(t *testing.T) {
	const total = 1000 // incl. header; well within default History
	h := NewHub(HubOptions{})
	s := h.Subscribe(0)
	defer s.Close()

	pump(h, total-1) // synchronous burst: the subscriber's ring is overrun at once
	h.Close(nil)

	frames := drain(t, s)
	if len(frames) != total {
		t.Fatalf("drained %d frames, want all %d", len(frames), total)
	}
	for i, f := range frames {
		if f.Seq != uint64(i+1) {
			t.Fatalf("frame %d has seq %d, want %d (gapless)", i, f.Seq, i+1)
		}
	}
	if s.Dropped() != 0 {
		t.Fatalf("dropped %d, want 0 (history covered the whole burst)", s.Dropped())
	}
	if s.Gap() != 0 {
		t.Fatalf("gap %d, want 0", s.Gap())
	}
}

// TestHubConcurrentChurn hammers the hub from all sides under -race:
// one publisher, readers draining, and subscribe/close churn.
func TestHubConcurrentChurn(t *testing.T) {
	var c Counters
	h := NewHub(HubOptions{History: 128, Counters: &c})
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				s := h.Subscribe(uint64(k * i))
				for j := 0; j < 50; j++ {
					if _, err := s.Next(ctx); err != nil {
						break
					}
				}
				s.Close()
			}
		}(i)
	}
	pump(h, 20000)
	wg.Wait()

	snap := c.Snapshot()
	if snap.Subscribers != 0 {
		t.Fatalf("subscriber gauge %d after all closed, want 0", snap.Subscribers)
	}
	if snap.FramesTotal != 20001 {
		t.Fatalf("framesTotal %d, want 20001 (header + 20000 events)", snap.FramesTotal)
	}
	if snap.HubDepth != 128 {
		t.Fatalf("hubDepth %d, want full ring 128", snap.HubDepth)
	}
	h.Release()
	if c.Snapshot().HubDepth != 0 {
		t.Fatalf("hubDepth %d after Release, want 0", c.Snapshot().HubDepth)
	}
}

// TestHubTeardown: subscribers attached before, during and after Close
// all drain cleanly to io.EOF; late subscribers replay from the ring.
func TestHubTeardown(t *testing.T) {
	h := NewHub(HubOptions{History: 1024})
	early := h.Subscribe(0)
	defer early.Close()

	pump(h, 200)

	if got := drain(t, early); len(got) != 201 {
		t.Fatalf("early subscriber got %d frames, want 201", len(got))
	}
	// Subscribing after close replays the retained history, then EOF —
	// the replay-from-cache path.
	late := h.Subscribe(0)
	defer late.Close()
	if got := drain(t, late); len(got) != 201 {
		t.Fatalf("late subscriber got %d frames, want 201", len(got))
	}
	// Publishing after close is a no-op.
	h.Event(sim.TraceEvent{Event: 999, Kind: "look"})
	if h.Stats().Frames != 201 {
		t.Fatalf("frames published after close: %d, want 201", h.Stats().Frames)
	}
	if h.EndNote() == nil {
		t.Fatal("EndNote nil after close")
	}
}

// TestHubCloseWakesParkedSubscriber: a subscriber parked in Next wakes
// on Close with io.EOF, not a hang.
func TestHubCloseWakesParkedSubscriber(t *testing.T) {
	h := NewHub(HubOptions{})
	s := h.Subscribe(0)
	defer s.Close()

	errc := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_, err := s.Next(ctx)
		errc <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it park
	h.Close(fmt.Errorf("run aborted"))
	if err := <-errc; err != io.EOF {
		t.Fatalf("parked Next returned %v, want io.EOF", err)
	}
}
