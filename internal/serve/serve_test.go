package serve_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"luxvis/internal/serve"
)

// newTestServer starts a Server plus an httptest front end and returns
// both with cleanup registered.
func newTestServer(t *testing.T, opt serve.Options) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(opt)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
		defer cancel()
		if err := s.Close(ctx); err != nil {
			t.Errorf("Close: %v", err)
		}
	})
	return s, ts
}

func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decode: %v", url, err)
		}
	}
	return resp.StatusCode
}

func metricsSnapshot(t *testing.T, ts *httptest.Server) serve.MetricsSnapshot {
	t.Helper()
	var m serve.MetricsSnapshot
	if code := getJSON(t, ts.URL+"/metrics", &m); code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	return m
}

// waitMetrics polls /metrics until cond holds.
func waitMetrics(t *testing.T, ts *httptest.Server, what string, cond func(serve.MetricsSnapshot) bool) serve.MetricsSnapshot {
	t.Helper()
	deadline := time.Now().Add(time.Minute)
	for {
		m := metricsSnapshot(t, ts)
		if cond(m) {
			return m
		}
		if time.Now().After(deadline) {
			t.Fatalf("waited a minute for %s: %+v %+v %+v", what, m.Jobs, m.Workers, m.Queue)
		}
		time.Sleep(time.Millisecond)
	}
}

// getAsync issues a GET on its own goroutine and delivers the status
// code (0 when the request itself failed).
func getAsync(url string) <-chan int {
	code := make(chan int, 1)
	go func() {
		resp, err := http.Get(url)
		if err != nil {
			code <- 0
			return
		}
		resp.Body.Close()
		code <- resp.StatusCode
	}()
	return code
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	var body map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("/healthz status %d", code)
	}
	if body["status"] != "ok" {
		t.Fatalf("/healthz body %v", body)
	}
	if v, ok := body["version"].(string); !ok || v == "" {
		t.Fatalf("/healthz missing version: %v", body)
	}
}

func TestRunEndToEndAndCacheHit(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	url := ts.URL + "/v1/run?algorithm=logvis&scheduler=async-rr&family=uniform&n=16&seed=5"

	var first serve.RunSummary
	if code := getJSON(t, url, &first); code != http.StatusOK {
		t.Fatalf("first run status %d", code)
	}
	if first.Cached {
		t.Fatal("first run reported cached:true")
	}
	if first.N != 16 || first.Seed != 5 || first.Algorithm == "" {
		t.Fatalf("implausible summary: %+v", first)
	}
	if !first.Reached {
		t.Fatalf("logvis n=16 did not reach Complete Visibility: %+v", first)
	}

	var second serve.RunSummary
	if code := getJSON(t, url, &second); code != http.StatusOK {
		t.Fatalf("second run status %d", code)
	}
	if !second.Cached {
		t.Fatal("identical repeat request was not a cache hit")
	}
	// Apart from the cache marker the summaries must be identical —
	// runs are deterministic per (algorithm, family, n, seed, options).
	second.Cached = false
	if first != second {
		t.Fatalf("cache returned a different summary:\n first=%+v\nsecond=%+v", first, second)
	}

	m := metricsSnapshot(t, ts)
	if m.Cache.Hits < 1 {
		t.Fatalf("cache hits = %d, want >= 1 (stats: %+v)", m.Cache.Hits, m.Cache)
	}
	if m.Cache.Size < 1 {
		t.Fatalf("cache size = %d, want >= 1", m.Cache.Size)
	}
	if m.Jobs.Accepted < 1 || m.Jobs.Completed < 1 {
		t.Fatalf("job counters %+v, want accepted/completed >= 1", m.Jobs)
	}
	if _, ok := m.LatencyMs["/v1/run"]; !ok {
		t.Fatalf("no latency histogram for /v1/run: %v", m.LatencyMs)
	}
}

func TestRunPostJSON(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	body := `{"algorithm":"seqvis","scheduler":"fsync","family":"circle","n":12,"seed":3}`
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST status %d", resp.StatusCode)
	}
	var sum serve.RunSummary
	if err := json.NewDecoder(resp.Body).Decode(&sum); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if sum.Algorithm != "seqvis" || sum.Scheduler != "fsync" || sum.N != 12 {
		t.Fatalf("summary %+v does not match request", sum)
	}
}

func TestRunValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, MaxN: 100})
	cases := []struct {
		name  string
		query string
		want  string // substring of the error
	}{
		{"unknown algorithm", "algorithm=qvis", "unknown algorithm"},
		{"unknown scheduler", "scheduler=sync", "known:"},
		{"unknown family", "family=blob", "unknown family"},
		{"n too large", "n=101", "out of range"},
		{"n zero", "n=-1", "out of range"},
		{"bad int", "n=abc", "bad n"},
		{"bad bool", "nonRigid=maybe", "bad nonRigid"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var e struct {
				Error string `json:"error"`
			}
			code := getJSON(t, ts.URL+"/v1/run?"+tc.query, &e)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if !strings.Contains(e.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", e.Error, tc.want)
			}
		})
	}
}

// TestRunDeadlineAbortsPromptly is the acceptance scenario: a large-N
// run with a 50ms deadline must come back 504 promptly (the handler
// answers on ctx expiry) and the engine must abandon the run at its
// next epoch boundary — observable as the busy-worker count returning
// to zero long before the run's epoch cap could elapse.
func TestRunDeadlineAbortsPromptly(t *testing.T) {
	if testing.Short() {
		t.Skip("large-N deadline run in -short mode")
	}
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	url := ts.URL + "/v1/run?n=2048&skipChecks=true&timeoutMs=50&seed=9"

	start := time.Now()
	var e struct {
		Error string `json:"error"`
	}
	code := getJSON(t, url, &e)
	if code != http.StatusGatewayTimeout {
		t.Fatalf("status %d (%s), want 504", code, e.Error)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("504 took %v for a 50ms deadline", elapsed)
	}
	if !strings.Contains(e.Error, "epoch boundary") {
		t.Fatalf("timeout error %q does not explain the abort point", e.Error)
	}

	// The worker must free itself at the next epoch boundary — if
	// cancellation were broken it would grind through the full default
	// epoch cap instead.
	deadline := time.Now().Add(120 * time.Second)
	for {
		m := metricsSnapshot(t, ts)
		if m.Workers.Busy == 0 {
			if m.Jobs.Timeouts < 1 {
				t.Fatalf("timeouts = %d, want >= 1 (%+v)", m.Jobs.Timeouts, m.Jobs)
			}
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker still busy %v after the deadline fired", 120*time.Second)
		}
		time.Sleep(200 * time.Millisecond)
	}
}

// TestQueueFullSheds verifies bounded-queue load shedding: with one
// worker pinned and the one-slot queue filled, the next request is
// turned away immediately with 429 and a Retry-After hint.
func TestQueueFullSheds(t *testing.T) {
	if testing.Short() {
		t.Skip("load-shedding run in -short mode")
	}
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})

	// Two slow distinct runs: one occupies the worker, one the queue.
	// Their deadlines bound how long cleanup waits for the drain.
	slow := func(seed int) string {
		return fmt.Sprintf("%s/v1/run?n=1024&skipChecks=true&timeoutMs=5000&seed=%d", ts.URL, seed)
	}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(seed int) {
			resp, err := http.Get(slow(seed))
			if err != nil {
				done <- 0
				return
			}
			resp.Body.Close()
			done <- resp.StatusCode
		}(100 + i)
	}

	// Wait until the pool is saturated: worker busy and queue full.
	saturated := false
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		m := metricsSnapshot(t, ts)
		if m.Workers.Busy == m.Workers.Total && m.Queue.Depth == m.Queue.Capacity {
			saturated = true
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if !saturated {
		t.Fatal("pool never saturated; cannot provoke load shedding")
	}

	resp, err := http.Get(slow(999))
	if err != nil {
		t.Fatalf("GET: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 response missing Retry-After")
	}
	m := metricsSnapshot(t, ts)
	if m.Jobs.Rejected < 1 {
		t.Fatalf("rejected = %d, want >= 1", m.Jobs.Rejected)
	}

	// Let the pinned runs resolve so cleanup's drain is quick. Each
	// either hits its 5s deadline (504) or — on a fast machine —
	// finishes inside it (200); both are orderly outcomes.
	for i := 0; i < 2; i++ {
		code := <-done
		if code != http.StatusGatewayTimeout && code != http.StatusOK {
			t.Fatalf("pinned run resolved with status %d, want 504 or 200", code)
		}
	}
}

// TestGracefulClose verifies the drain contract: Close waits for
// in-flight jobs, and submissions after Close are refused with 503.
func TestGracefulClose(t *testing.T) {
	s := serve.New(serve.Options{Workers: 2})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var sum serve.RunSummary
	if code := getJSON(t, ts.URL+"/v1/run?n=8&seed=2", &sum); code != http.StatusOK {
		t.Fatalf("warm-up run status %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	if err := s.Close(ctx); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Close is idempotent.
	if err := s.Close(ctx); err != nil {
		t.Fatalf("second Close: %v", err)
	}

	code := getJSON(t, ts.URL+"/v1/run?n=8&seed=3", nil)
	if code != http.StatusServiceUnavailable {
		t.Fatalf("post-Close run status %d, want 503", code)
	}
}

func TestExperimentValidationAndTimeout(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})

	var e struct {
		Error string `json:"error"`
	}
	resp, err := http.Post(ts.URL+"/v1/experiment", "application/json",
		strings.NewReader(`{"name":"T99"}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown experiment status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(e.Error, "T1") {
		t.Fatalf("error %q does not list known experiments", e.Error)
	}

	// A 1ms deadline cannot finish any experiment; the endpoint must
	// answer 504 promptly and the batch must cancel underneath.
	start := time.Now()
	resp, err = http.Post(ts.URL+"/v1/experiment", "application/json",
		strings.NewReader(`{"name":"T1","quick":true,"timeoutMs":1}`))
	if err != nil {
		t.Fatalf("POST: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("timed-out experiment status %d, want 504", resp.StatusCode)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Fatalf("504 took %v for a 1ms deadline", elapsed)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/run", nil)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("DELETE /v1/run status %d, want 405", resp.StatusCode)
	}
	code := getJSON(t, ts.URL+"/v1/experiment", nil)
	if code != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/experiment status %d, want 405", code)
	}
}

// TestJobAccounting pins the settle step's bookkeeping: once the server
// is idle, every accepted job has been counted exactly once, as
// completed, timed out or failed. The jobs cover a sync miss, a cache
// hit (which is not a job), async runs, a 50ms-deadline run, a job that
// expired while queued and an experiment; a shed job counts only as
// rejected.
func TestJobAccounting(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, QueueDepth: 1})
	run := func(query string) int { return getJSON(t, ts.URL+"/v1/run?"+query, nil) }
	idle := func(m serve.MetricsSnapshot) bool { return m.Workers.Busy == 0 && m.Queue.Depth == 0 }

	if code := run("n=8&seed=1"); code != http.StatusOK {
		t.Fatalf("sync miss: status %d", code)
	}
	var hit serve.RunSummary
	if code := getJSON(t, ts.URL+"/v1/run?n=8&seed=1", &hit); code != http.StatusOK || !hit.Cached {
		t.Fatalf("repeat request: status %d cached %v, want a cache hit", code, hit.Cached)
	}
	waitRunDone(t, ts.URL, startStreamRun(t, ts.URL, `{"n": 8, "seed": 2}`))
	waitMetrics(t, ts, "an idle server", idle)

	// A 50ms-deadline run holds the only worker until its first epoch
	// boundary; an async run queued behind it expires before the worker
	// frees, and the next submission finds the queue full.
	pinned := getAsync(ts.URL + "/v1/run?n=384&skipChecks=true&timeoutMs=50&seed=3")
	waitMetrics(t, ts, "the pinned run on the worker", func(m serve.MetricsSnapshot) bool {
		return m.Workers.Busy == 1 && m.Queue.Depth == 0
	})
	expired := startStreamRun(t, ts.URL, `{"n": 8, "seed": 4, "timeoutMs": 1}`)
	waitMetrics(t, ts, "a full queue", func(m serve.MetricsSnapshot) bool { return m.Queue.Depth == 1 })
	if code := run("n=8&seed=5"); code != http.StatusTooManyRequests {
		t.Fatalf("submission to a full queue: status %d, want 429", code)
	}
	if code := <-pinned; code != http.StatusGatewayTimeout {
		t.Fatalf("50ms-deadline run: status %d, want 504", code)
	}
	if st := waitRunEnd(t, ts.URL, expired); st.State != "failed" {
		t.Fatalf("run queued past its deadline ended %q, want failed", st.State)
	}

	resp, err := http.Post(ts.URL+"/v1/experiment", "application/json",
		strings.NewReader(`{"name":"T1","quick":true,"timeoutMs":1}`))
	if err != nil {
		t.Fatalf("POST /v1/experiment: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("1ms experiment: status %d, want 504", resp.StatusCode)
	}
	// The worker takes jobs in order, so once this last run answers,
	// every job before it has settled.
	if code := run("n=8&seed=6"); code != http.StatusOK {
		t.Fatalf("last run: status %d", code)
	}

	m := waitMetrics(t, ts, "an idle server", idle)
	j := m.Jobs
	if j.Accepted != j.Completed+j.Timeouts+j.Failed {
		t.Fatalf("accepted %d != completed %d + timeouts %d + failed %d",
			j.Accepted, j.Completed, j.Timeouts, j.Failed)
	}
	want := serve.JobCounters{Accepted: 6, Completed: 3, Rejected: 1, Timeouts: 3}
	if j != want {
		t.Fatalf("job counters %+v, want %+v", j, want)
	}
	if m.Cache.Hits != 1 {
		t.Fatalf("cache hits %d, want 1", m.Cache.Hits)
	}
}
