package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"luxvis/internal/serve"
)

// serveMixed is a closed loop of nproc clients, one keep-alive
// connection each, against an in-process visserve handler. Every
// repetition replays the same seeded request plan against a fresh
// server, so every repetition does the same work.
type serveMixed struct{}

const (
	// catalogueRuns is how many distinct runs a plan simulates (its
	// misses and streams). It stays below cacheEntries, serve's default
	// LRU capacity, so no entry is ever evicted and every planned repeat
	// is a hit under any interleaving of the clients.
	catalogueRuns = 420
	cacheEntries  = 512
	// planStreams and planHits make 15% of a plan's 600 requests streams
	// and 30% cache-hit repeats; the other 55% are misses.
	planStreams = 90
	planHits    = 180
	// maxStreamN keeps streamed runs small enough that even the longest
	// one's frames fit the hub's default history ring.
	maxStreamN = 48
	// minLatencySamples keeps at least ten latency samples beyond p99,
	// even when the host is too slow for more than one repetition in
	// the measured time.
	minLatencySamples = 1000
)

// Request kinds of a plan.
const (
	kindMiss   = "miss"
	kindHit    = "hit"
	kindStream = "stream"
)

// planned is one request of a client's plan.
type planned struct {
	Kind      string `json:"kind"`
	Algorithm string `json:"algorithm"`
	N         int    `json:"n"`
	Seed      int64  `json:"seed"`
}

// catalogue is the fixed set of runs every plan simulates, one list per
// client. Each run has a fresh run seed and so a cache key of its own.
// Every client gets the same (algorithm, N) draws, so the clients carry
// equal work and finish together instead of one idling while the other
// drains a heavier list. Like an engine workload's run list the
// catalogue does not depend on --seed, so the simulated work is the same
// for every seed.
func catalogue(clients int) [][]planned {
	algos := []string{"logvis", "seqvis", "circlevis"}
	rng := rand.New(rand.NewSource(1))
	out := make([][]planned, clients)
	seed := int64(1000)
	for i := 0; i < catalogueRuns/clients; i++ {
		algo, n := algos[rng.Intn(len(algos))], 24+rng.Intn(41)
		for c := range out {
			out[c] = append(out[c], planned{Kind: kindMiss, Algorithm: algo, N: n, Seed: seed})
			seed++
		}
	}
	return out
}

// share is client c's part of total when it is split across clients.
func share(total, clients, c int) int {
	if c < total%clients {
		return total/clients + 1
	}
	return total / clients
}

// makePlan orders each client's catalogue runs as seed picks, makes its
// share of planStreams of them streams, and interleaves its share of
// planHits repeats.
func makePlan(seed int64, clients int) [][]planned {
	rng := rand.New(rand.NewSource(seed))
	plan := catalogue(clients)
	for c, runs := range plan {
		rng.Shuffle(len(runs), func(i, j int) { runs[i], runs[j] = runs[j], runs[i] })
		streams := share(planStreams, clients, c)
		for i := range runs {
			if streams > 0 && runs[i].N <= maxStreamN {
				runs[i].Kind = kindStream
				streams--
			}
		}
		plan[c] = interleaveHits(rng, runs, share(planHits, clients, c))
	}
	return plan
}

// interleaveHits places hits repeats among one client's runs. A repeat
// names a key the client completed earlier with a synchronous run, and
// repeats never exceed a third of the client's requests so far.
func interleaveHits(rng *rand.Rand, runs []planned, hits int) []planned {
	var out, done []planned
	for placed := 0; len(runs) > 0 || placed < hits; {
		left := hits - placed
		canHit := left > 0 && len(done) > 0 && 3*(placed+1) <= len(out)+1
		if canHit && (len(runs) == 0 || rng.Intn(left+len(runs)) < left) {
			p := done[rng.Intn(len(done))]
			p.Kind = kindHit
			out = append(out, p)
			placed++
			continue
		}
		if len(runs) == 0 {
			break
		}
		p := runs[0]
		runs = runs[1:]
		out = append(out, p)
		if p.Kind == kindMiss {
			done = append(done, p)
		}
	}
	return out
}

// sample is one completed request.
type sample struct {
	kind    string
	latency time.Duration
	// events, epochs and crossings are what the server simulated for the
	// request (zero for a hit).
	events, epochs, crossings int
	streamBytes               int64
	failure                   string
}

// server is one fresh in-process visserve instance on a loopback port.
type server struct {
	s  *serve.Server
	ts *httptest.Server
}

func startServer() *server {
	s := serve.New(serve.Options{})
	return &server{s: s, ts: httptest.NewServer(s.Handler())}
}

func (sv *server) close() {
	sv.ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	_ = sv.s.Close(ctx) // a drain past the minute leaves workers behind; nothing else to do
}

// repResult is one repetition of the plan.
type repResult struct {
	time      interval
	alloc     uint64
	samples   []sample
	scrape    map[string]float64
	scrapeErr error
}

// runPlan executes the plan on a fresh server, one goroutine per client.
func runPlan(plan [][]planned, scrape bool) repResult {
	sv := startServer()
	defer sv.close()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	alloc0 := ms.TotalAlloc

	out := make([][]sample, len(plan))
	var wg sync.WaitGroup
	c0 := readHostClock()
	for c := range plan {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			tr := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}
			defer tr.CloseIdleConnections()
			cl := &client{base: sv.ts.URL, http: &http.Client{Transport: tr, Timeout: 2 * time.Minute}}
			for _, p := range plan[c] {
				out[c] = append(out[c], cl.do(p))
			}
		}(c)
	}
	wg.Wait()
	r := repResult{time: c0.since()}
	runtime.ReadMemStats(&ms)
	r.alloc = ms.TotalAlloc - alloc0
	for _, s := range out {
		r.samples = append(r.samples, s...)
	}
	if scrape {
		r.scrape, r.scrapeErr = scrapeMetrics(sv.ts.URL)
	}
	return r
}

// latencies returns the repetition's request latencies of one kind (all
// kinds for ""), in milliseconds of host time: each is scaled by the
// repetition's host/wall ratio.
func (r repResult) latencies(kind string) []float64 {
	scale := float64(r.time.host) / float64(r.time.wall)
	var xs []float64
	for _, s := range r.samples {
		if kind == "" || s.kind == kind {
			xs = append(xs, s.latency.Seconds()*1000*scale)
		}
	}
	return xs
}

// client issues one client's requests over its single connection.
type client struct {
	base string
	http *http.Client
}

func (c *client) do(p planned) sample {
	s := sample{kind: p.Kind}
	t0 := time.Now()
	var err error
	if p.Kind == kindStream {
		err = c.stream(p, &s, t0)
	} else {
		err = c.run(p, &s)
	}
	if s.latency == 0 {
		s.latency = time.Since(t0)
	}
	if err != nil {
		s.failure = fmt.Sprintf("%s %s n=%d seed=%d: %v", p.Kind, p.Algorithm, p.N, p.Seed, err)
	}
	return s
}

func (c *client) post(path string, p planned, want int, into any) error {
	body, _ := json.Marshal(serve.RunRequest{Algorithm: p.Algorithm, N: p.N, Seed: p.Seed})
	resp, err := c.http.Post(c.base+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, want, into)
}

func (c *client) get(path string, into any) error {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	return decode(resp, http.StatusOK, into)
}

func decode(resp *http.Response, want int, into any) error {
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != want {
		return fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, into)
}

// run is a synchronous POST /v1/run; the response must agree with the
// plan on whether it came from the cache.
func (c *client) run(p planned, s *sample) error {
	var sum serve.RunSummary
	if err := c.post("/v1/run", p, http.StatusOK, &sum); err != nil {
		return err
	}
	if !sum.Reached {
		return fmt.Errorf("reached=false")
	}
	if sum.Cached != (p.Kind == kindHit) {
		return fmt.Errorf("cached=%v, plan says %s", sum.Cached, p.Kind)
	}
	if !sum.Cached {
		s.events, s.epochs, s.crossings = sum.Events, sum.Epochs, sum.PathCrossings
	}
	return nil
}

// stream starts an asynchronous run and drains its NDJSON stream to the
// end, unpaced; its latency runs from start to the end of the stream.
// The stream must be gapless and carry one line per engine event after
// its header.
func (c *client) stream(p planned, s *sample, start time.Time) error {
	var st serve.StreamRunStatus
	if err := c.post("/v1/runs", p, http.StatusAccepted, &st); err != nil {
		return err
	}
	resp, err := c.http.Get(c.base + st.StreamPath + "?speed=0")
	if err != nil {
		return err
	}
	lines, n, err := countLines(resp.Body)
	resp.Body.Close()
	s.latency = time.Since(start)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("stream status %d", resp.StatusCode)
	}
	if g := resp.Header.Get("X-Stream-Gap"); g != "" {
		return fmt.Errorf("stream gap of %s frames", g)
	}
	s.streamBytes = n
	// The stream ends when the run does, a moment before the worker
	// files the summary; poll for it.
	for tries := 0; ; tries++ {
		if err := c.get("/v1/runs/"+st.ID, &st); err != nil {
			return err
		}
		if st.State == "done" || st.State == "failed" || tries > 2000 {
			break
		}
		time.Sleep(time.Millisecond)
	}
	if st.Summary == nil {
		return fmt.Errorf("run %s ended %q without a summary: %s", st.ID, st.State, st.Error)
	}
	if !st.Summary.Reached {
		return fmt.Errorf("reached=false")
	}
	if lines-1 != st.Summary.Events {
		return fmt.Errorf("stream carried %d event lines, run had %d events", lines-1, st.Summary.Events)
	}
	s.events, s.epochs, s.crossings = st.Summary.Events, st.Summary.Epochs, st.Summary.PathCrossings
	return nil
}

// countLines counts the lines and bytes of a stream body.
func countLines(r io.Reader) (lines int, n int64, err error) {
	br := bufio.NewReaderSize(r, 64<<10)
	for {
		b, err := br.ReadSlice('\n')
		n += int64(len(b))
		if len(b) > 0 && b[len(b)-1] == '\n' {
			lines++
		}
		switch err {
		case nil, bufio.ErrBufferFull:
		case io.EOF:
			return lines, n, nil
		default:
			return lines, n, err
		}
	}
}

// scrapeMetrics reads the server's own counters: the JSON snapshot for
// the cache and job accounting, the Prometheus text for the engine and
// stream families.
func scrapeMetrics(base string) (map[string]float64, error) {
	tr := &http.Transport{}
	defer tr.CloseIdleConnections()
	cl := &http.Client{Transport: tr, Timeout: time.Minute}
	var snap serve.MetricsSnapshot
	resp, err := cl.Get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	err = decode(resp, http.StatusOK, &snap)
	resp.Body.Close()
	if err != nil {
		return nil, fmt.Errorf("metrics snapshot: %w", err)
	}
	m := map[string]float64{
		"cache_hits":   float64(snap.Cache.Hits),
		"cache_misses": float64(snap.Cache.Misses),
		"rejected":     float64(snap.Jobs.Rejected),
	}
	req, _ := http.NewRequest(http.MethodGet, base+"/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	resp, err = cl.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		name, val, ok := strings.Cut(sc.Text(), " ")
		if !ok || strings.HasPrefix(name, "#") {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			m[name] = v
		}
	}
	return m, sc.Err()
}

func (serveMixed) run(cfg runConfig) report {
	var rep report
	clients := runtime.NumCPU()
	plan := makePlan(cfg.seed, clients)
	// Set-up is generating the plan and starting the server.
	rep.setup = timeSpaced(setupRepeats, setupGap, func() func() {
		makePlan(cfg.seed, clients)
		return startServer().close
	})

	var plain, traced []repResult
	var ref []sample
	deadline := cfg.start.Add(cfg.seconds)
	for i := 0; ; i++ {
		rep.calib = append(rep.calib, calibrate())
		// In a traced run every other repetition scrapes the server, so
		// the two kinds give the tracing overhead.
		scrape := cfg.trace && i%2 == 1
		r := runPlan(plan, scrape)
		if scrape {
			traced = append(traced, r)
			if r.scrapeErr != nil {
				rep.notef("scraping /metrics: %v", r.scrapeErr)
			}
		} else {
			plain = append(plain, r)
		}
		rep.attempted += len(r.samples)
		for _, s := range r.samples {
			if s.failure != "" {
				rep.failed++
				rep.notef("failed request: %s", s.failure)
			}
		}
		if ref == nil {
			ref = r.samples
		} else if !sameSimulation(ref, r.samples) {
			rep.nondeterministic = true
			rep.notef("repetition simulated different work than the first")
		}
		enough := len(plain)*len(r.samples) >= minLatencySamples && (!cfg.trace || len(traced) > 0)
		if enough && time.Now().Add(r.time.wall).After(deadline) {
			break
		}
	}

	var hostTimes, walls, allocs, lat []float64
	var total time.Duration
	for _, r := range plain {
		hostTimes = append(hostTimes, r.time.host.Seconds())
		walls = append(walls, r.time.wall.Seconds())
		allocs = append(allocs, float64(r.alloc)/1e6)
		total += r.time.host
		lat = append(lat, r.latencies("")...)
	}
	var events, epochs, crossings int
	for _, s := range ref {
		events += s.events
		epochs += s.epochs
		crossings += s.crossings
	}
	wall := median(hostTimes)
	rep.notef("plan: %d clients, %d requests; %d repetitions; %d latency samples; events=%d epochs=%d crossings=%d",
		clients, len(ref), len(plain)+len(traced), len(lat), events, epochs, crossings)
	rep.notef("repetition host times (s): %v", hostTimes)
	rep.notef("repetition wall times (s): %v", walls)
	rep.e2e = map[string]float64{
		"wall_s":         wall,
		"alloc_mb":       median(allocs),
		"events_per_s":   float64(events) / wall,
		"epochs":         float64(epochs),
		"path_crossings": float64(crossings),
		"throughput_rps": float64(len(lat)) / total.Seconds(),
		"latency_p50_ms": quantile(lat, 0.50),
		"latency_p99_ms": quantile(lat, 0.99),
	}
	if cfg.trace {
		rep.layers = serveLayers(plain, traced)
	}
	return rep
}

// sameSimulation reports whether two repetitions simulated the same runs.
func sameSimulation(a, b []sample) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].events != b[i].events || a[i].epochs != b[i].epochs || a[i].crossings != b[i].crossings {
			return false
		}
	}
	return true
}

// serveLayers reads the per-layer split from the scraped repetitions:
// per-kind latency on the client side, the rest from the server's
// /metrics (a fresh server per repetition, so each scrape covers exactly
// one repetition).
func serveLayers(plain, traced []repResult) map[string]float64 {
	var mb []float64
	for _, r := range traced {
		var bytes int64
		for _, s := range r.samples {
			bytes += s.streamBytes
		}
		mb = append(mb, float64(bytes)/1e6)
	}
	kindP50 := func(kind string) float64 {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, r.latencies(kind)...)
		}
		return median(xs)
	}
	scraped := func(f func(m map[string]float64) float64) float64 {
		var xs []float64
		for _, r := range traced {
			xs = append(xs, f(r.scrape))
		}
		return median(xs)
	}
	key := func(k string) func(map[string]float64) float64 {
		return func(m map[string]float64) float64 { return m[k] }
	}
	var plainHost, tracedHost, tracedWalls []float64
	for _, r := range plain {
		plainHost = append(plainHost, r.time.host.Seconds())
	}
	for _, r := range traced {
		tracedHost = append(tracedHost, r.time.host.Seconds())
		tracedWalls = append(tracedWalls, r.time.wall.Seconds())
	}
	computed := `luxvis_engine_vis_rows_total{path="computed"}`
	reused := `luxvis_engine_vis_rows_total{path="reused"}`
	return map[string]float64{
		"serve.hit_p50_ms":    kindP50(kindHit),
		"serve.miss_p50_ms":   kindP50(kindMiss),
		"serve.stream_p50_ms": kindP50(kindStream),
		"serve.cache_hit_frac": scraped(func(m map[string]float64) float64 {
			return m["cache_hits"] / (m["cache_hits"] + m["cache_misses"])
		}),
		"serve.rejected":     scraped(key("rejected")),
		"geom.look_s":        scraped(key("luxvis_engine_vis_look_seconds_total")),
		"geom.cv_s":          scraped(key("luxvis_engine_vis_cv_seconds_total")),
		"geom.cv_checks":     scraped(key("luxvis_engine_vis_cv_checks_total")),
		"geom.rows_computed": scraped(key(computed)),
		"geom.rows_reused":   scraped(key(reused)),
		"geom.row_reuse_frac": scraped(func(m map[string]float64) float64 {
			return m[reused] / (m[computed] + m[reused])
		}),
		"stream.encode_s":     scraped(key("luxvis_stream_encode_ns")) / 1e9,
		"stream.frames":       scraped(key("luxvis_stream_frames_total")),
		"stream.dropped":      scraped(key("luxvis_stream_dropped_total")),
		"stream.mb":           median(mb),
		"trace.wall_s":        median(tracedWalls),
		"trace.overhead_frac": median(tracedHost)/median(plainHost) - 1,
	}
}
