package serve_test

import (
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"sync"
	"testing"
	"time"

	"luxvis/internal/serve"
)

// getProm scrapes /metrics with the Prometheus Accept header.
func getProm(t *testing.T, ts *httptest.Server) (string, string) {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET /metrics: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", resp.StatusCode)
	}
	return string(body), resp.Header.Get("Content-Type")
}

var promLine = regexp.MustCompile(`^(# (HELP|TYPE) [a-zA-Z_:][a-zA-Z0-9_:]* .*|[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? [^ ]+)$`)

func TestMetricsContentNegotiation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	// A run first, so engine totals and latency histograms are non-empty.
	if code := getJSON(t, ts.URL+"/v1/run?n=12&seed=3&scheduler=async-rr", nil); code != http.StatusOK {
		t.Fatalf("/v1/run status %d", code)
	}

	// Default Accept: the JSON snapshot, exactly as before.
	m := metricsSnapshot(t, ts)
	if m.Jobs.Completed != 1 {
		t.Errorf("JSON snapshot jobs: %+v", m.Jobs)
	}
	lat, ok := m.LatencyMs["/v1/run"]
	if !ok {
		t.Fatalf("JSON snapshot missing /v1/run latency: %v", m.LatencyMs)
	}
	if lat.Count != 1 || lat.WindowCount != 1 {
		t.Errorf("latency Count=%d WindowCount=%d, want 1/1", lat.Count, lat.WindowCount)
	}

	// Prometheus Accept: the text exposition.
	body, ct := getProm(t, ts)
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("content type %q", ct)
	}
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if !promLine.MatchString(line) {
			t.Errorf("malformed exposition line %q", line)
		}
	}
	for _, want := range []string{
		"visserve_jobs_completed_total 1",
		"visserve_workers_total 2",
		"visserve_cache_misses_total 1",
		`visserve_request_duration_ms_count{endpoint="/v1/run"} 1`,
		`visserve_request_duration_ms_bucket{endpoint="/v1/run",le="+Inf"} 1`,
		"luxvis_engine_runs_started_total 1",
		"luxvis_engine_cv_reached_total 1",
		`luxvis_engine_phase_cycles_total{phase="interior-depletion"}`,
	} {
		if !strings.Contains(body, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}

// TestConcurrentScrapes hammers both /metrics encodings while runs
// execute; run under -race in CI to prove the atomic snapshot paths.
func TestConcurrentScrapes(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			getJSON(t, ts.URL+"/v1/run?n=10&scheduler=async-rr&seed="+string(rune('1'+seed)), nil)
		}(i)
	}
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			if i%2 == 0 {
				getProm(t, ts)
			} else {
				metricsSnapshot(t, ts)
			}
		}(i)
	}
	wg.Wait()
}

// TestDebugHandler: /debug/runs lists the runs executing now, from both
// endpoints, by their one registry id — a streamed run under the id its
// 202 returned, a /v1/run run under an id that GET /v1/runs never
// shows — and drops each run once it ends. pprof answers on the same
// listener.
func TestDebugHandler(t *testing.T) {
	s, ts := newTestServer(t, serve.Options{Workers: 2})
	ds := httptest.NewServer(s.DebugHandler())
	defer ds.Close()

	// Both runs stop at their first epoch boundary past 200ms.
	id := startStreamRun(t, ts.URL, `{"n": 256, "skipChecks": true, "timeoutMs": 200, "seed": 1}`)
	synced := getAsync(ts.URL + "/v1/run?n=256&skipChecks=true&timeoutMs=200&seed=2")
	var runs serve.DebugRuns
	for deadline := time.Now().Add(time.Minute); runs.Count < 2; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("/debug/runs never listed both runs: %+v", runs)
		}
		if code := getJSON(t, ds.URL+"/debug/runs", &runs); code != http.StatusOK {
			t.Fatalf("/debug/runs status %d", code)
		}
	}
	ids := map[int64]string{}
	started := map[int64]time.Time{}
	for _, r := range runs.Runs {
		ids[r.Seed], started[r.Seed] = r.ID, r.StartedAt
	}
	if ids[1] != id {
		t.Fatalf("/debug/runs lists the streamed run as %q, its 202 returned %q", ids[1], id)
	}
	// StartedAt is when a worker began the run, never before the
	// submission time that the run's status reports.
	var st serve.StreamRunStatus
	if code := getJSON(t, ts.URL+"/v1/runs/"+id, &st); code != http.StatusOK {
		t.Fatalf("GET /v1/runs/%s status %d", id, code)
	}
	if started[1].IsZero() || started[1].Before(st.StartedAt) || started[2].IsZero() {
		t.Fatalf("/debug/runs startedAt %v, streamed run submitted at %v: want worker start times", started, st.StartedAt)
	}
	syncID := ids[2]
	if syncID == "" || syncID == id {
		t.Fatalf("/debug/runs ids %v: want a distinct id for the /v1/run run", ids)
	}
	listed := func() map[string]bool {
		var list serve.StreamRunList
		if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK {
			t.Fatalf("GET /v1/runs status %d", code)
		}
		out := map[string]bool{}
		for _, st := range list.Runs {
			out[st.ID] = true
		}
		return out
	}
	if l := listed(); !l[id] || l[syncID] {
		t.Fatalf("GET /v1/runs lists %v: want %s and not the /v1/run run %s", l, id, syncID)
	}
	if code := getJSON(t, ts.URL+"/v1/runs/"+syncID, nil); code != http.StatusNotFound {
		t.Fatalf("GET /v1/runs/%s (a /v1/run run): status %d, want 404", syncID, code)
	}

	if code := <-synced; code != http.StatusGatewayTimeout {
		t.Fatalf("/v1/run status %d, want 504", code)
	}
	waitRunEnd(t, ts.URL, id)
	// The /v1/run handler answers at its deadline; the worker settles
	// the run at its next epoch boundary.
	waitMetrics(t, ts, "idle workers", func(m serve.MetricsSnapshot) bool { return m.Workers.Busy == 0 })
	if code := getJSON(t, ds.URL+"/debug/runs", &runs); code != http.StatusOK || runs.Count != 0 || len(runs.Runs) != 0 {
		t.Fatalf("/debug/runs after both runs ended: status %d, %+v", code, runs)
	}
	if l := listed(); !l[id] || l[syncID] {
		t.Fatalf("GET /v1/runs after the runs ended lists %v: want the retained %s only", l, id)
	}

	// pprof index answers on the debug listener.
	resp, err := http.Get(ds.URL + "/debug/pprof/")
	if err != nil {
		t.Fatalf("GET /debug/pprof/: %v", err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), "goroutine") {
		t.Errorf("/debug/pprof/ status %d", resp.StatusCode)
	}
}
