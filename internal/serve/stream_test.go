package serve_test

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/obs"
	"luxvis/internal/sched"
	"luxvis/internal/serve"
	"luxvis/internal/sim"
	"luxvis/internal/stream"
	"luxvis/internal/trace"
)

// startStreamRun POSTs /v1/runs and returns the accepted run id.
func startStreamRun(t *testing.T, ts string, body string) string {
	t.Helper()
	resp, err := http.Post(ts+"/v1/runs", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/runs: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("POST /v1/runs status %d: %s", resp.StatusCode, b)
	}
	var st serve.StreamRunStatus
	if err := jsonDecode(resp.Body, &st); err != nil {
		t.Fatalf("decode 202 body: %v", err)
	}
	if st.ID == "" || st.StreamPath == "" {
		t.Fatalf("202 body missing id or stream path: %+v", st)
	}
	return st.ID
}

func jsonDecode(r io.Reader, out any) error {
	b, err := io.ReadAll(r)
	if err != nil {
		return err
	}
	return json.Unmarshal(b, out)
}

// goroutinesSettled samples runtime.NumGoroutine after a GC-and-settle
// pause, so transient runtime helpers don't skew the leak bound.
func goroutinesSettled() int {
	runtime.GC()
	time.Sleep(50 * time.Millisecond)
	return runtime.NumGoroutine()
}

// waitRunDone polls the status endpoint until the run reaches a
// terminal state.
func waitRunDone(t *testing.T, ts, id string) serve.StreamRunStatus {
	t.Helper()
	deadline := time.Now().Add(2 * time.Minute)
	for {
		var st serve.StreamRunStatus
		if code := getJSON(t, ts+"/v1/runs/"+id, &st); code != http.StatusOK {
			t.Fatalf("GET /v1/runs/%s status %d", id, code)
		}
		switch st.State {
		case "done":
			return st
		case "failed":
			t.Fatalf("run %s failed: %s", id, st.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("run %s still %q after 2m", id, st.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamRunNDJSON: the NDJSON stream of an async run is a valid
// trace-JSONL stream — it decodes with the stored-trace decoder and
// carries exactly the run's events.
func TestStreamRunNDJSON(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	id := startStreamRun(t, ts.URL, `{"n": 8, "seed": 3}`)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream?speed=0")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("Content-Type %q, want application/x-ndjson", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}

	dec, err := trace.NewDecoder(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stream does not decode as a trace: %v", err)
	}
	if dec.Header().N != 8 || dec.Header().Seed != 3 {
		t.Fatalf("stream header %+v, want n=8 seed=3", dec.Header())
	}
	events := 0
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding stream event %d: %v", events, err)
		}
		events++
	}

	st := waitRunDone(t, ts.URL, id)
	if st.Summary == nil {
		t.Fatal("done run has no summary")
	}
	if events != st.Summary.Events {
		t.Fatalf("stream carried %d events, run recorded %d", events, st.Summary.Events)
	}
}

// TestStreamFinishedRunUnpaced: a run that has already finished streams
// at full speed when the GET carries no ?speed=, exactly like a live
// stream — at the 1x replay pace this run would take seconds.
func TestStreamFinishedRunUnpaced(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	id := startStreamRun(t, ts.URL, `{"n": 24, "seed": 3}`)
	st := waitRunDone(t, ts.URL, id)
	if st.Summary == nil {
		t.Fatal("done run has no summary")
	}
	if paced := float64(st.Summary.Events) / stream.DefaultReplayEventsPerSec; paced < 2 {
		t.Fatalf("run has %d events (%.1fs at 1x): too few to tell paced from unpaced", st.Summary.Events, paced)
	}

	start := time.Now()
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	elapsed := time.Since(start)

	dec, err := trace.NewDecoder(bytes.NewReader(body))
	if err != nil {
		t.Fatalf("stream does not decode as a trace: %v", err)
	}
	events := 0
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding stream event %d: %v", events, err)
		}
		events++
	}
	if events != st.Summary.Events {
		t.Fatalf("stream carried %d events, run recorded %d", events, st.Summary.Events)
	}
	if elapsed > 500*time.Millisecond {
		t.Fatalf("finished-run stream of %d events took %v without ?speed=, want unpaced", events, elapsed)
	}
}

// TestStreamMatchesDirectTrace: the served stream's event lines are
// byte-identical to a locally recorded trace of the same run — the
// byte-compatibility acceptance across the HTTP layer.
func TestStreamMatchesDirectTrace(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	id := startStreamRun(t, ts.URL, `{"n": 8, "seed": 5}`)
	waitRunDone(t, ts.URL, id)

	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream?speed=0")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading stream: %v", err)
	}
	gotLines := bytes.Split(bytes.TrimRight(body, "\n"), []byte("\n"))

	pts := config.Generate(config.Uniform, 8, 5)
	opt := sim.DefaultOptions(sched.NewAsyncRandom(), 5)
	opt.RecordTrace = true
	res, err := sim.Run(core.NewLogVis(), pts, opt)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	var want bytes.Buffer
	if err := trace.WriteJSONL(&want, res); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	wantLines := bytes.Split(bytes.TrimRight(want.Bytes(), "\n"), []byte("\n"))

	if len(gotLines) != len(wantLines) {
		t.Fatalf("stream has %d lines, direct trace %d", len(gotLines), len(wantLines))
	}
	// Event lines (everything after the header) must match byte for byte;
	// the headers differ only in the live note and totals.
	for i := 1; i < len(gotLines); i++ {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("line %d differs:\nstream: %s\ndirect: %s", i, gotLines[i], wantLines[i])
		}
	}
}

// sseEvent is one parsed server-sent event.
type sseEvent struct {
	id    uint64
	event string
	data  string
}

// readSSE parses a full SSE response body.
func readSSE(t *testing.T, r io.Reader) []sseEvent {
	t.Helper()
	var out []sseEvent
	var cur sseEvent
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur != (sseEvent{}) {
				out = append(out, cur)
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			id, err := strconv.ParseUint(line[len("id: "):], 10, 64)
			if err != nil {
				t.Fatalf("bad SSE id line %q: %v", line, err)
			}
			cur.id = id
		case strings.HasPrefix(line, "event: "):
			cur.event = line[len("event: "):]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[len("data: "):]
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("scanning SSE: %v", err)
	}
	return out
}

func getSSE(t *testing.T, url, lastEventID string) []sseEvent {
	t.Helper()
	req, err := http.NewRequest(http.MethodGet, url, nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/event-stream")
	if lastEventID != "" {
		req.Header.Set("Last-Event-ID", lastEventID)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type %q, want text/event-stream", ct)
	}
	return readSSE(t, resp.Body)
}

// TestStreamSSEResume is the Last-Event-ID acceptance proof: a client
// that reconnects with the last id it saw receives exactly the frames
// after it, ending with the end event.
func TestStreamSSEResume(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	id := startStreamRun(t, ts.URL, `{"n": 8, "seed": 3}`)
	waitRunDone(t, ts.URL, id)
	url := ts.URL + "/v1/runs/" + id + "/stream?speed=0"

	full := getSSE(t, url, "")
	if len(full) < 10 {
		t.Fatalf("full stream has %d events, want a run's worth", len(full))
	}
	if full[0].id != 1 || !strings.Contains(full[0].data, `"kind":"header"`) {
		t.Fatalf("first SSE event %+v, want the header at id 1", full[0])
	}
	last := full[len(full)-1]
	if last.event != "end" {
		t.Fatalf("terminal SSE event type %q, want end", last.event)
	}

	// Reconnect from the middle: the resumed stream is exactly the tail.
	cut := len(full) / 2
	cursor := full[cut-1].id
	resumed := getSSE(t, url, strconv.FormatUint(cursor, 10))
	wantTail := full[cut:]
	if len(resumed) != len(wantTail) {
		t.Fatalf("resumed stream has %d events, want %d", len(resumed), len(wantTail))
	}
	for i := range wantTail {
		if resumed[i] != wantTail[i] {
			t.Fatalf("resumed event %d = %+v, want %+v", i, resumed[i], wantTail[i])
		}
	}
	if resumed[0].id != cursor+1 {
		t.Fatalf("resume started at id %d, want %d", resumed[0].id, cursor+1)
	}
}

// TestStreamFromEpochSeek: ?from= serves the header plus only events
// stamped at or after the requested epoch.
func TestStreamFromEpochSeek(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 2})
	id := startStreamRun(t, ts.URL, `{"n": 8, "seed": 3}`)
	st := waitRunDone(t, ts.URL, id)
	if st.Summary.Epochs < 2 {
		t.Fatalf("run finished in %d epochs; seek test needs at least 2", st.Summary.Epochs)
	}
	from := st.Summary.Epochs - 1

	resp, err := http.Get(fmt.Sprintf("%s/v1/runs/%s/stream?speed=0&from=%d", ts.URL, id, from))
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	dec, err := trace.NewDecoder(resp.Body)
	if err != nil {
		t.Fatalf("seeked stream does not decode: %v", err)
	}
	n := 0
	for {
		ev, err := dec.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("decoding: %v", err)
		}
		if ev.Epoch < from {
			t.Fatalf("event with epoch %d leaked through from=%d", ev.Epoch, from)
		}
		n++
	}
	if n == 0 {
		t.Fatal("epoch seek returned no events at all")
	}
	if n >= st.Summary.Events {
		t.Fatalf("seek returned %d of %d events; nothing was skipped", n, st.Summary.Events)
	}
}

// TestTraceFileReplay: a stored trace under TraceDir replays through
// /v1/replay byte-identical to the file; traversal and unknown names
// are rejected.
func TestTraceFileReplay(t *testing.T) {
	dir := t.TempDir()
	pts := config.Generate(config.Uniform, 8, 7)
	opt := sim.DefaultOptions(sched.NewAsyncRandom(), 7)
	opt.RecordTrace = true
	res, err := sim.Run(core.NewLogVis(), pts, opt)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	var stored bytes.Buffer
	if err := trace.WriteJSONL(&stored, res); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	if err := os.WriteFile(filepath.Join(dir, "run.jsonl"), stored.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	_, ts := newTestServer(t, serve.Options{Workers: 1, TraceDir: dir})
	resp, err := http.Get(ts.URL + "/v1/replay/run.jsonl?speed=0")
	if err != nil {
		t.Fatalf("GET replay: %v", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("reading replay: %v", err)
	}
	if !bytes.Equal(body, stored.Bytes()) {
		t.Fatalf("replayed stream is not byte-identical to the stored trace (%d vs %d bytes)",
			len(body), stored.Len())
	}

	for _, bad := range []struct {
		name string
		code int
	}{
		{"missing.jsonl", http.StatusNotFound},
		{"..%2Frun.jsonl", http.StatusBadRequest},
		{".hidden", http.StatusBadRequest},
	} {
		r2, err := http.Get(ts.URL + "/v1/replay/" + bad.name)
		if err != nil {
			t.Fatalf("GET %s: %v", bad.name, err)
		}
		r2.Body.Close()
		if r2.StatusCode != bad.code {
			t.Fatalf("replay %q: status %d, want %d", bad.name, r2.StatusCode, bad.code)
		}
	}
}

// TestTraceReplayDisabled: without TraceDir the endpoint is a 404.
func TestTraceReplayDisabled(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	resp, err := http.Get(ts.URL + "/v1/replay/run.jsonl")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("replay without TraceDir: status %d, want 404", resp.StatusCode)
	}
}

// TestStreamRunListAndUnknown: the run listing includes started runs;
// unknown ids are 404s on both status and stream.
func TestStreamRunListAndUnknown(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	id := startStreamRun(t, ts.URL, `{"n": 4, "seed": 1}`)
	waitRunDone(t, ts.URL, id)

	var list serve.StreamRunList
	if code := getJSON(t, ts.URL+"/v1/runs", &list); code != http.StatusOK {
		t.Fatalf("GET /v1/runs status %d", code)
	}
	found := false
	for _, st := range list.Runs {
		if st.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("run %s missing from listing %+v", id, list)
	}

	if code := getJSON(t, ts.URL+"/v1/runs/nope", nil); code != http.StatusNotFound {
		t.Fatalf("unknown run status: %d, want 404", code)
	}
	resp, err := http.Get(ts.URL + "/v1/runs/nope/stream")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown run stream: %d, want 404", resp.StatusCode)
	}
}

// TestStreamRetention: finished runs beyond StreamRetain are forgotten.
func TestStreamRetention(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1, StreamRetain: 2})
	var ids []string
	for i := 0; i < 4; i++ {
		id := startStreamRun(t, ts.URL, fmt.Sprintf(`{"n": 4, "seed": %d}`, i+1))
		waitRunDone(t, ts.URL, id)
		ids = append(ids, id)
	}
	// The two oldest must be gone, the two newest still replayable.
	for _, id := range ids[:2] {
		if code := getJSON(t, ts.URL+"/v1/runs/"+id, nil); code != http.StatusNotFound {
			t.Fatalf("evicted run %s: status %d, want 404", id, code)
		}
	}
	for _, id := range ids[2:] {
		if code := getJSON(t, ts.URL+"/v1/runs/"+id, nil); code != http.StatusOK {
			t.Fatalf("retained run %s: status %d, want 200", id, code)
		}
	}
}

// TestStreamMetricsExposed: the luxvis_stream_* families appear on the
// Prometheus exposition after streaming activity, alongside build info.
func TestStreamMetricsExposed(t *testing.T) {
	_, ts := newTestServer(t, serve.Options{Workers: 1})
	id := startStreamRun(t, ts.URL, `{"n": 4, "seed": 1}`)
	waitRunDone(t, ts.URL, id)
	resp, err := http.Get(ts.URL + "/v1/runs/" + id + "/stream?speed=0")
	if err != nil {
		t.Fatal(err)
	}
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	req, err := http.NewRequest(http.MethodGet, ts.URL+"/metrics", nil)
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Accept", "text/plain")
	mr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer mr.Body.Close()
	body, err := io.ReadAll(mr.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)
	// The full exposition must satisfy the 0.0.4 line grammar and the
	// HELP/TYPE pairing rules — the structural golden test.
	if err := obs.ValidateExposition(text); err != nil {
		t.Fatalf("/metrics exposition malformed: %v", err)
	}
	for _, want := range []string{
		"luxvis_stream_subscribers",
		"luxvis_stream_dropped_total",
		"luxvis_stream_hub_depth",
		"luxvis_stream_encode_ns",
		"luxvis_stream_frames_total",
		"luxvis_build_info{",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("metrics exposition missing %q", want)
		}
	}
	if !strings.Contains(text, `go_version="`) {
		t.Fatal("build info missing the go_version label")
	}
}

// TestStreamSoak fans one run out to many concurrent SSE subscribers
// under -race and bounds goroutine growth afterwards — the CI
// stream-soak job. Subscribers attach while the run executes (live) and
// after it finishes (replay); every one must see a complete, decodable
// stream.
func TestStreamSoak(t *testing.T) {
	subscribers := 256
	if testing.Short() {
		subscribers = 32
	}
	before := goroutinesSettled()

	func() {
		_, ts := newTestServer(t, serve.Options{Workers: 2})
		id := startStreamRun(t, ts.URL, `{"n": 32, "seed": 7}`)
		url := ts.URL + "/v1/runs/" + id + "/stream?speed=0"

		client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: subscribers}}
		defer client.CloseIdleConnections()
		var wg sync.WaitGroup
		errs := make(chan error, subscribers)
		for i := 0; i < subscribers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				req, err := http.NewRequest(http.MethodGet, url, nil)
				if err != nil {
					errs <- err
					return
				}
				req.Header.Set("Accept", "text/event-stream")
				resp, err := client.Do(req)
				if err != nil {
					errs <- err
					return
				}
				defer resp.Body.Close()
				body, err := io.ReadAll(resp.Body)
				if err != nil {
					errs <- err
					return
				}
				if !bytes.Contains(body, []byte(`"kind":"header"`)) {
					errs <- fmt.Errorf("subscriber stream missing the header frame")
					return
				}
				if !bytes.Contains(body, []byte("event: end")) {
					errs <- fmt.Errorf("subscriber stream missing the end event")
				}
			}()
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Errorf("subscriber: %v", err)
		}
		waitRunDone(t, ts.URL, id)
	}()

	// Everything the soak started — handlers, subscribers, the run — must
	// be gone; allow a small slack for the runtime's own pool goroutines.
	deadline := time.Now().Add(10 * time.Second)
	for {
		after := goroutinesSettled()
		if after <= before+10 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak: %d before soak, %d after", before, after)
		}
		time.Sleep(100 * time.Millisecond)
	}
}
