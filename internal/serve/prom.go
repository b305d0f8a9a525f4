package serve

import (
	"net/http"
	"runtime"
	"sort"
	"strings"
	"time"

	"luxvis/internal/obs"
	"luxvis/internal/version"
)

// wantsPrometheus reports whether the client negotiated the Prometheus
// text exposition: any Accept header naming text/plain or an
// OpenMetrics media type. Absent or wildcard Accept keeps the JSON
// snapshot, so existing clients see no change.
func wantsPrometheus(r *http.Request) bool {
	accept := r.Header.Get("Accept")
	return strings.Contains(accept, "text/plain") ||
		strings.Contains(accept, "application/openmetrics-text")
}

// writePrometheus renders the full metric surface in the Prometheus
// text exposition format (0.0.4): serve-layer counters and gauges,
// per-endpoint cumulative latency histograms, and the lifetime engine
// totals accumulated from every run this process executed.
func (s *Server) writePrometheus(w http.ResponseWriter) {
	w.Header().Set("Content-Type", obs.PromContentType)
	pw := obs.NewTextWriter(w)

	jc := s.metrics.counters()
	pw.Counter("visserve_jobs_accepted_total", "Jobs admitted to the queue.", float64(jc.Accepted))
	pw.Counter("visserve_jobs_completed_total", "Jobs that finished successfully.", float64(jc.Completed))
	pw.Counter("visserve_jobs_rejected_total", "Jobs shed at submission (full queue or shutdown).", float64(jc.Rejected))
	pw.Counter("visserve_jobs_timeout_total", "Jobs that hit their deadline.", float64(jc.Timeouts))
	pw.Counter("visserve_jobs_failed_total", "Jobs that failed with an engine or experiment error.", float64(jc.Failed))

	pw.Gauge("visserve_queue_depth", "Jobs currently waiting for a worker.", float64(len(s.queue)))
	pw.Gauge("visserve_queue_capacity", "Maximum queued jobs before load shedding.", float64(cap(s.queue)))
	pw.Gauge("visserve_workers_total", "Size of the worker pool.", float64(s.opt.Workers))
	pw.Gauge("visserve_workers_busy", "Workers currently executing a job.", float64(s.metrics.busyWorkers()))

	cs := s.cache.stats()
	pw.Counter("visserve_cache_hits_total", "Result-cache hits.", float64(cs.Hits))
	pw.Counter("visserve_cache_misses_total", "Result-cache misses.", float64(cs.Misses))
	pw.Gauge("visserve_cache_size", "Result-cache entries.", float64(cs.Size))
	pw.Gauge("visserve_cache_capacity", "Result-cache capacity.", float64(cs.Capacity))

	pw.Gauge("visserve_runs_inflight", "Engine runs currently executing.", float64(len(s.runs.list(running))))
	pw.Gauge("visserve_uptime_seconds", "Seconds since the server started.", time.Since(s.started).Seconds())

	// Per-endpoint latency histograms, sorted for a stable exposition.
	hists := s.metrics.histograms()
	endpoints := make([]string, 0, len(hists))
	for ep := range hists {
		endpoints = append(endpoints, ep)
	}
	sort.Strings(endpoints)
	for _, ep := range endpoints {
		pw.Histogram("visserve_request_duration_ms",
			"HTTP handler latency in milliseconds (lifetime cumulative histogram).",
			hists[ep], obs.Label{Name: "endpoint", Value: ep})
	}

	s.totals.WritePrometheus(pw, "luxvis_engine")
	s.streamCtr.WritePrometheus(pw, "luxvis_stream")

	// Build identity as a constant-1 info gauge, the Prometheus idiom
	// for exposing labels rather than a measurement.
	pw.Gauge("luxvis_build_info", "Build identity; the value is always 1.", 1,
		obs.Label{Name: "version", Value: version.Short()},
		obs.Label{Name: "go_version", Value: runtime.Version()})
	if err := pw.Err(); err != nil {
		// The response is already streaming; nothing useful to send.
		return
	}
}
