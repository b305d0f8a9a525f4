package stream

import (
	"sync/atomic"

	"luxvis/internal/obs"
)

// Counters aggregates streaming telemetry across every hub and
// subscriber that shares it — the process-wide numbers behind the
// luxvis_stream_* Prometheus families. All fields are atomics; a nil
// *Counters disables accounting entirely (hubs check once per call).
type Counters struct {
	// subscribers is the number of currently attached subscribers.
	subscribers atomic.Int64
	// droppedTotal counts frames a slow subscriber lost (overwritten in
	// both its ring and the hub history) — each is one frame one slow
	// consumer missed.
	droppedTotal atomic.Int64
	// framesTotal counts frames published across all hubs.
	framesTotal atomic.Int64
	// hubDepth is the total number of frames currently retained in hub
	// history rings (grows until each ring is full, drops when a hub is
	// released).
	hubDepth atomic.Int64
	// encodeNanos accumulates wall time spent encoding frames — the
	// encode-once cost every subscriber shares.
	encodeNanos atomic.Int64
	// hubsOpen is the number of hubs accepting frames (created and not
	// yet closed).
	hubsOpen atomic.Int64
}

// Snapshot is a point-in-time copy of the counters.
type CountersSnapshot struct {
	Subscribers  int64
	DroppedTotal int64
	FramesTotal  int64
	HubDepth     int64
	EncodeNanos  int64
	HubsOpen     int64
}

// Snapshot copies the current counter values.
func (c *Counters) Snapshot() CountersSnapshot {
	if c == nil {
		return CountersSnapshot{}
	}
	return CountersSnapshot{
		Subscribers:  c.subscribers.Load(),
		DroppedTotal: c.droppedTotal.Load(),
		FramesTotal:  c.framesTotal.Load(),
		HubDepth:     c.hubDepth.Load(),
		EncodeNanos:  c.encodeNanos.Load(),
		HubsOpen:     c.hubsOpen.Load(),
	}
}

// WritePrometheus emits the streaming families with the given name
// prefix (conventionally "luxvis_stream").
func (c *Counters) WritePrometheus(pw *obs.TextWriter, prefix string) {
	s := c.Snapshot()
	pw.Gauge(prefix+"_subscribers", "Currently attached stream subscribers.", float64(s.Subscribers))
	pw.Counter(prefix+"_dropped_total", "Frames lost by slow subscribers (overwritten in both their ring and the hub history).", float64(s.DroppedTotal))
	pw.Counter(prefix+"_frames_total", "Frames published across all hubs.", float64(s.FramesTotal))
	pw.Gauge(prefix+"_hub_depth", "Frames currently retained in hub history rings.", float64(s.HubDepth))
	pw.Counter(prefix+"_encode_ns", "Nanoseconds spent encoding frames (each frame is encoded once, shared by all subscribers).", float64(s.EncodeNanos))
	pw.Gauge(prefix+"_hubs_open", "Hubs currently accepting frames.", float64(s.HubsOpen))
}
