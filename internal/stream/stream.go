// Package stream fans one hot engine run out to many subscribers. A Hub
// attaches to an in-flight run as a sim.Observer, encodes each record
// exactly once into the internal/trace JSONL wire format, and publishes
// the encoded frame to every subscriber through a bounded per-subscriber
// ring. A slow subscriber never blocks the engine: its ring overwrites
// oldest-first, the overwritten span is refilled from the hub's history,
// and only frames that left both are lost (with an exact drop counter).
//
// The hub also retains a bounded history ring of recent frames, which is
// what makes SSE Last-Event-ID resume work: a reconnecting subscriber
// names the last sequence number it saw and receives everything retained
// after it, plus a gap count when the ring has already overwritten part
// of the range.
//
// A stream is the trace encoding, line for line: header first, then
// events — so a live stream pipes into the same consumers (visreplay,
// visviz) that read stored traces. Replay serves a Source (a stored
// trace file, or a finished hub's history) back as a timed stream.
package stream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sync"
	"time"

	"luxvis/internal/sim"
	"luxvis/internal/trace"
)

// Frame is one encoded stream record. Data is a single JSONL line
// without the trailing newline, shared by every subscriber — receivers
// must treat it as read-only.
type Frame struct {
	// Seq numbers frames from 1 (the header) in publish order; it is the
	// SSE event id and the resume cursor.
	Seq uint64
	// Kind mirrors the record's kind field ("header", "look", "compute",
	// "step", "crash").
	Kind string
	// Epoch is the record's epoch stamp (0 for the header and for events
	// in the first epoch); replay's from-epoch seek filters on it.
	Epoch int
	Data  []byte
}

const (
	// DefaultHistory is the hub history-ring capacity (resume window)
	// when HubOptions.History is zero.
	DefaultHistory = 16384
	// subscriberBuf is the per-subscriber ring capacity. When a frame
	// arrives at a full ring, the oldest buffered frame is overwritten;
	// the subscriber stays attached and Next refills the overwritten span
	// from the hub's history ring. Frames are actually lost — and counted,
	// exactly, by Subscriber.Dropped — only when the consumer lags beyond
	// the History window, so the last copy is gone.
	subscriberBuf = 256
)

// HubOptions configures a Hub. The zero value is usable.
//
// Goroutine-lifecycle contract (checked statically by the goleak
// analyzer, pinned dynamically by the lifecycle tests): the hub itself
// starts no goroutines — publish is a ring write plus a non-blocking
// notify, on the caller's stack. Every goroutine a *consumer* parks in
// Subscriber.Next is released by one of exactly three events: a frame
// arrival, the hub's Close (closeCh wakes every parked subscriber,
// after which Next drains buffers and returns io.EOF), or its own
// ctx. So a subscriber goroutine leaks only if its context never
// cancels AND the hub is never closed; hold one of those edges and
// termination is guaranteed. Close and Release are idempotent, and
// Subscribe after Close is legal (it serves retained history to EOF).
type HubOptions struct {
	// History is the hub-side retained-frame ring capacity (default
	// DefaultHistory). Resume reaches at most this far back; a finished
	// hub whose run fit entirely in the ring can be replayed in full.
	// It is also the slow-consumer recovery window: a lagging subscriber
	// refills overwritten frames from history and only loses frames once
	// it trails by more than this.
	History int
	// Counters, when non-nil, receives process-wide accounting shared
	// across hubs (the luxvis_stream_* families).
	Counters *Counters
}

func (o HubOptions) withDefaults() HubOptions {
	if o.History <= 0 {
		o.History = DefaultHistory
	}
	return o
}

// ErrClosed reports an operation on a subscriber after its Close.
var ErrClosed = errors.New("stream: subscriber closed")

// Hub is a broadcast hub for one run. It implements sim.Observer: attach
// it via sim.Options.Observer (or obs.Multi) and it converts the run's
// callbacks into the published frame stream. All methods are safe for
// concurrent use; the observer callbacks may arrive from many goroutines
// (the concurrent runtime's contract) as well as from one.
//
// The engine-side callbacks never block: publishing is a ring write and
// a non-blocking notify per subscriber.
type Hub struct {
	opt HubOptions

	mu      sync.Mutex
	ring    []Frame // circular history buffer
	head    int     // index of oldest retained frame
	count   int
	nextSeq uint64 // seq assigned to the next published frame; first is 1
	subs    map[*Subscriber]struct{}
	done    bool
	endNote []byte // JSON end-of-stream status, set at Close
	closeCh chan struct{}

	released bool
}

// NewHub returns a hub ready to observe one run.
func NewHub(opt HubOptions) *Hub {
	opt = opt.withDefaults()
	h := &Hub{
		opt:     opt,
		ring:    make([]Frame, opt.History),
		nextSeq: 1,
		subs:    make(map[*Subscriber]struct{}),
		closeCh: make(chan struct{}),
	}
	if c := opt.Counters; c != nil {
		c.hubsOpen.Add(1)
	}
	return h
}

// encode marshals v, charging the encode-once cost to the counters.
func (h *Hub) encode(v any) []byte {
	c := h.opt.Counters
	var start time.Time
	if c != nil {
		start = time.Now()
	}
	b, err := json.Marshal(v)
	if err != nil {
		// The record types are fixed structs of finite floats and
		// strings; Marshal cannot fail on them. Guard anyway: a frame
		// with an error note beats a silent hole in the stream.
		b = []byte(fmt.Sprintf(`{"kind":"error","error":%q}`, err.Error()))
	}
	if c != nil {
		c.encodeNanos.Add(time.Since(start).Nanoseconds())
	}
	return b
}

// RunStart implements sim.Observer: it publishes the header frame. The
// live header carries the run identity but zero totals (they are not
// known yet) and the note "live stream"; event lines are
// byte-identical to a stored trace of the same run.
func (h *Hub) RunStart(info sim.RunInfo) {
	data := h.encode(trace.Header{
		Kind:      "header",
		Algorithm: info.Algorithm,
		Scheduler: info.Scheduler,
		N:         info.N,
		Seed:      info.Seed,
		Note:      "live stream",
	})
	h.publish("header", 0, data)
}

// Event implements sim.Observer: each engine event becomes one frame,
// encoded once.
func (h *Hub) Event(ev sim.TraceEvent) {
	data := h.encode(trace.Event{
		Kind:  ev.Kind,
		Event: ev.Event,
		Robot: ev.Robot,
		X:     ev.Pos.X,
		Y:     ev.Pos.Y,
		Color: ev.Color.String(),
		Epoch: ev.Epoch,
	})
	h.publish(ev.Kind, ev.Epoch, data)
}

// CycleEnd implements sim.Observer (no frame).
func (h *Hub) CycleEnd(sim.CycleInfo) {}

// MoveEnd implements sim.Observer (no frame).
func (h *Hub) MoveEnd(sim.MoveInfo) {}

// EpochEnd implements sim.Observer (no frame; events carry their epoch
// stamp).
func (h *Hub) EpochEnd(sim.EpochSample) {}

// ViolationFound implements sim.Observer (no frame; the violating event
// itself is in the stream).
func (h *Hub) ViolationFound(sim.Violation) {}

// RunEnd implements sim.Observer: it ends the stream. Subscribers drain
// their buffered frames and then see io.EOF; EndNote carries the final
// status.
func (h *Hub) RunEnd(res *sim.Result, aborted error) {
	status := endStatus{Kind: "end", Reached: res.Reached, Epochs: res.Epochs, Events: res.Events}
	if aborted != nil {
		status.Aborted = aborted.Error()
	}
	h.closeNote(status)
}

// endStatus is the end-of-stream summary surfaced by EndNote (and the
// SSE "end" event). It is not part of the JSONL frame stream.
type endStatus struct {
	Kind    string `json:"kind"` // always "end"
	Reached bool   `json:"reached"`
	Epochs  int    `json:"epochs"`
	Events  int    `json:"events"`
	Aborted string `json:"aborted,omitempty"`
}

// Close ends the stream with a generic status. Idempotent; concurrent
// publishes after Close are dropped.
func (h *Hub) Close(err error) {
	status := endStatus{Kind: "end"}
	if err != nil {
		status.Aborted = err.Error()
	}
	h.closeNote(status)
}

// closeNote ends the stream with the given status record.
func (h *Hub) closeNote(status endStatus) {
	note := h.encode(status)
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	h.done = true
	h.endNote = note
	h.mu.Unlock()
	// The close channel wakes every parked subscriber; closing it outside
	// the lock keeps channel operations out of the critical section.
	close(h.closeCh)
	if c := h.opt.Counters; c != nil {
		c.hubsOpen.Add(-1)
	}
}

// EndNote returns the end-of-stream status JSON (nil while live).
func (h *Hub) EndNote() []byte {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.endNote
}

// HubStats is a point-in-time summary of one hub.
type HubStats struct {
	// Frames is the number of frames published so far.
	Frames uint64
	// Depth is the number of frames currently retained for resume.
	Depth int
	// OldestSeq is the seq of the oldest retained frame (0 when empty).
	OldestSeq uint64
	// Subscribers is the number of attached subscribers.
	Subscribers int
}

// Stats returns the hub's current state.
func (h *Hub) Stats() HubStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	s := HubStats{
		Frames:      h.nextSeq - 1,
		Depth:       h.count,
		Subscribers: len(h.subs),
	}
	if h.count > 0 {
		s.OldestSeq = h.ring[h.head].Seq
	}
	return s
}

// Release returns the hub's retained history accounting to the shared
// counters. Call when dropping the last reference to a finished hub
// (e.g. evicting it from a replay cache); the hub must already be
// closed. Idempotent.
func (h *Hub) Release() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.released {
		return
	}
	h.released = true
	if c := h.opt.Counters; c != nil {
		c.hubDepth.Add(-int64(h.count))
	}
}

// publish appends a frame to the history ring and fans it out. It never
// blocks: subscriber rings absorb or spill to history. A frame
// becomes *lost* for a subscriber only when neither that subscriber's
// ring nor the hub history retains it any longer; the loss is counted
// at the overwrite that removes the last copy, so drop counters are
// exact at every instant.
func (h *Hub) publish(kind string, epoch int, data []byte) {
	c := h.opt.Counters
	h.mu.Lock()
	if h.done {
		h.mu.Unlock()
		return
	}
	f := Frame{Seq: h.nextSeq, Kind: kind, Epoch: epoch, Data: data}
	h.nextSeq++
	shedSeq := uint64(0) // seq the history ring sheds this publish
	if h.count < len(h.ring) {
		h.ring[(h.head+h.count)%len(h.ring)] = f
		h.count++
		if c != nil {
			c.hubDepth.Add(1)
		}
	} else {
		shedSeq = h.ring[h.head].Seq
		h.ring[h.head] = f
		h.head = (h.head + 1) % len(h.ring)
	}
	if shedSeq != 0 {
		// The shed frame is gone from history; any subscriber that still
		// needed it and does not hold its own copy has now lost it.
		for s := range h.subs {
			if s.next <= shedSeq && !(s.count > 0 && s.ring[s.head].Seq <= shedSeq) {
				s.dropped++
				if c != nil {
					c.droppedTotal.Add(1)
				}
			}
		}
	}
	for s := range h.subs {
		s.pushLocked(f)
	}
	h.mu.Unlock()
	if c != nil {
		c.framesTotal.Add(1)
	}
}

// Subscriber is one attached consumer. Read frames with Next; call
// Close when done (the HTTP layer defers it). Not safe for concurrent
// Next calls from multiple goroutines.
//
// Delivery is two-tier: the subscriber's own bounded
// ring is the fast path, and when a burst overwrites it, Next refills
// the overwritten span from the hub's history ring. A frame is dropped
// — counted exactly, once — only when it has left both, i.e. the
// consumer lags further than the hub's History window.
type Subscriber struct {
	h *Hub
	// next is the seq of the next frame to deliver (the cursor).
	next uint64
	// ring is the bounded live buffer, guarded by h.mu. It only holds
	// frames with Seq >= next, contiguously.
	ring    []Frame
	head    int
	count   int
	dropped uint64
	gap     uint64 // frames already unrecoverable at Subscribe (resume truncation)
	closed  bool
	notify  chan struct{}
}

// Subscribe attaches a consumer that receives every retained frame with
// Seq > afterSeq and all frames published afterwards. afterSeq 0 means
// "from the start of what the hub still retains". Subscribing to a
// finished hub is the replay-from-cache path: the subscriber drains the
// retained history and then sees io.EOF.
func (h *Hub) Subscribe(afterSeq uint64) *Subscriber {
	h.mu.Lock()
	s := &Subscriber{
		h:      h,
		next:   afterSeq + 1,
		ring:   make([]Frame, subscriberBuf),
		notify: make(chan struct{}, 1),
	}
	// Place the cursor. Frames the history ring has already shed are the
	// resume gap; everything still retained is served by Next directly
	// from history, under the same lock that publishes, so the splice is
	// gapless.
	if h.count > 0 {
		oldest := h.ring[h.head].Seq
		if s.next < oldest {
			s.gap = oldest - s.next
			s.next = oldest
		}
	} else if s.next < h.nextSeq {
		s.gap = h.nextSeq - s.next
		s.next = h.nextSeq
	}
	if !h.done {
		h.subs[s] = struct{}{}
	}
	h.mu.Unlock()
	if c := h.opt.Counters; c != nil {
		c.subscribers.Add(1)
	}
	return s
}

// pushLocked buffers f for this subscriber; h.mu is held.
func (s *Subscriber) pushLocked(f Frame) {
	if s.closed || f.Seq < s.next {
		return // detached, or the cursor is already past f (resume ahead of publish)
	}
	if s.count == len(s.ring) {
		// Full ring: the oldest frame's slot is exactly where the new
		// tail lands once head advances, so one write both drops the
		// oldest and appends the newest. The overwritten frame is only
		// *lost* if the hub history (which f was just appended to) no
		// longer retains it for Next's refill path.
		old := s.ring[s.head]
		h := s.h
		if h.count == 0 || h.ring[h.head].Seq > old.Seq {
			s.dropped++
			if c := h.opt.Counters; c != nil {
				c.droppedTotal.Add(1)
			}
		}
		s.ring[s.head] = f
		s.head = (s.head + 1) % len(s.ring)
		s.wake()
		return
	}
	s.ring[(s.head+s.count)%len(s.ring)] = f
	s.count++
	s.wake()
}

// wake nudges a parked Next without blocking. h.mu is held; the notify
// channel has capacity 1 and a non-blocking send, so this is safe under
// the lock (locksafe: select with default).
func (s *Subscriber) wake() {
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Next returns the next frame. It blocks until a frame arrives, the
// stream ends (io.EOF after all buffered frames drain), or ctx is done.
//
// When a burst overwrote part of this subscriber's ring, Next refills
// the missing span from the hub's history ring, so a slow consumer only
// skips frames once it lags beyond the History window (the skipped span
// is exactly what Dropped reports).
func (s *Subscriber) Next(ctx context.Context) (Frame, error) {
	for {
		s.h.mu.Lock()
		if s.closed {
			s.h.mu.Unlock()
			return Frame{}, ErrClosed
		}
		// Fast path: the expected frame is at the front of our ring.
		if s.count > 0 && s.ring[s.head].Seq == s.next {
			f := s.ring[s.head]
			s.head = (s.head + 1) % len(s.ring)
			s.count--
			s.next = f.Seq + 1
			s.h.mu.Unlock()
			return f, nil
		}
		if s.h.count > 0 && s.next < s.h.nextSeq {
			oldest := s.h.ring[s.h.head].Seq
			if s.next >= oldest {
				// Refill: our ring shed this frame (or the cursor is
				// resuming) but the hub history still retains it.
				f := s.h.ring[(s.h.head+int(s.next-oldest))%len(s.h.ring)]
				s.next = f.Seq + 1
				s.h.mu.Unlock()
				return f, nil
			}
			// Frames between the cursor and the oldest still-available
			// copy are gone; their loss was counted when the last copy
			// was overwritten. Jump to what survives and retry.
			avail := oldest
			if s.count > 0 && s.ring[s.head].Seq < avail {
				avail = s.ring[s.head].Seq
			}
			if avail > s.next {
				s.next = avail
				s.h.mu.Unlock()
				continue
			}
		}
		if s.h.done {
			s.h.mu.Unlock()
			return Frame{}, io.EOF
		}
		s.h.mu.Unlock()
		select {
		case <-s.notify:
		case <-s.h.closeCh:
		case <-ctx.Done():
			return Frame{}, ctx.Err()
		}
	}
}

// Dropped returns how many frames this subscriber lost permanently —
// overwritten in both its own ring and the hub history before being
// read. The count is exact at every instant (losses are booked at the
// overwrite that removes the last copy), proven by test.
func (s *Subscriber) Dropped() uint64 {
	s.h.mu.Lock()
	defer s.h.mu.Unlock()
	return s.dropped
}

// Gap returns how many frames between the resume cursor and the oldest
// retained frame were already gone at Subscribe time (0 for a complete
// resume).
func (s *Subscriber) Gap() uint64 { return s.gap }

// Close detaches the subscriber. Idempotent.
func (s *Subscriber) Close() {
	s.h.mu.Lock()
	if s.closed {
		s.h.mu.Unlock()
		return
	}
	s.closed = true
	delete(s.h.subs, s)
	s.h.mu.Unlock()
	if c := s.h.opt.Counters; c != nil {
		c.subscribers.Add(-1)
	}
}
