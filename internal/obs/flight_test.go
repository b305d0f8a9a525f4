package obs

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
	"luxvis/internal/trace"
)

var updateGolden = flag.Bool("update-golden", false,
	"rewrite the golden flight dump from the current engine output")

// rogueAlgo behaves (stays, light Off) for each robot's first trigger
// computes, then lights an undeclared color forever — a deterministic
// palette violation partway into a run, with enough preceding events to
// wrap a small flight ring. Robots never move, so the count is keyed by
// position; a robot's computes are serialized by its own LCM cycle, so
// the trigger does not depend on the order in which the engine runs
// different robots' computes (they may run concurrently, ahead of their
// Compute events).
type rogueAlgo struct {
	trigger int

	mu    sync.Mutex
	calls map[geom.Point]int
}

func (a *rogueAlgo) Name() string           { return "rogue" }
func (a *rogueAlgo) Palette() []model.Color { return []model.Color{model.Off} }
func (a *rogueAlgo) Compute(s model.Snapshot) model.Action {
	a.mu.Lock()
	if a.calls == nil {
		a.calls = make(map[geom.Point]int)
	}
	a.calls[s.Self.Pos]++
	calls := a.calls[s.Self.Pos]
	a.mu.Unlock()
	if calls > a.trigger {
		return model.Stay(s.Self.Pos, model.Beacon)
	}
	return model.Stay(s.Self.Pos, model.Off)
}

// rogueRun executes the canonical flight-test scenario: four collinear
// robots (never CV, so only MaxEpochs ends the run) under FSYNC, going
// rogue in the fourth round.
func rogueRun(t *testing.T, opt sim.Options) sim.Result {
	t.Helper()
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0), geom.Pt(15, 0)}
	res, err := sim.Run(&rogueAlgo{trigger: 3}, pts, opt)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	return res
}

func rogueOptions() sim.Options {
	opt := sim.DefaultOptions(sched.NewFSync(), 5)
	opt.MaxEpochs = 6
	return opt
}

func TestFlightRecorderRing(t *testing.T) {
	f := NewFlightRecorder(3, nil)
	f.RunStart(sim.RunInfo{N: 1})
	for i := 0; i < 5; i++ {
		f.Event(sim.TraceEvent{Event: i})
	}
	evs := f.Events()
	if len(evs) != 3 {
		t.Fatalf("retained %d events, want 3", len(evs))
	}
	for i, ev := range evs {
		if ev.Event != i+2 {
			t.Errorf("event %d = %d, want %d (oldest-first)", i, ev.Event, i+2)
		}
	}
	// RunStart resets for the next run.
	f.RunStart(sim.RunInfo{N: 1})
	if got := f.Events(); len(got) != 0 {
		t.Errorf("ring not reset: %d events", len(got))
	}
}

func TestFlightRecorderDumpsOnViolation(t *testing.T) {
	var sink bytes.Buffer
	f := NewFlightRecorder(8, &sink)
	opt := rogueOptions()
	opt.Observer = f
	res := rogueRun(t, opt)

	if len(res.Violations) == 0 {
		t.Fatal("scenario produced no violations")
	}
	if !f.Dumped() {
		t.Fatal("flight recorder did not dump")
	}
	if err := f.Err(); err != nil {
		t.Fatalf("sink error: %v", err)
	}
	h, evs, err := trace.ReadJSONL(bytes.NewReader(sink.Bytes()))
	if err != nil {
		t.Fatalf("dump is not a valid trace stream: %v", err)
	}
	if h.Algorithm != "rogue" || h.N != 4 {
		t.Errorf("header %+v", h)
	}
	if h.Note == "" {
		t.Error("dump header has no reason note")
	}
	if len(evs) != 8 {
		t.Errorf("dump has %d events, want ring size 8", len(evs))
	}
	// Exactly one dump per run, even though every later compute also
	// violates.
	if n := bytes.Count(sink.Bytes(), []byte(`"kind":"header"`)); n != 1 {
		t.Errorf("%d headers in sink, want 1", n)
	}
}

// TestFlightDumpMatchesTraceTail is the differential check behind the
// flight recorder's core promise: its event lines are byte-identical to
// the tail of the full RecordTrace stream of the same seed, cut at the
// first violation.
func TestFlightDumpMatchesTraceTail(t *testing.T) {
	const k = 8

	var sink bytes.Buffer
	opt := rogueOptions()
	f := NewFlightRecorder(k, &sink)
	opt.Observer = f
	flightRes := rogueRun(t, opt)

	opt2 := rogueOptions()
	opt2.RecordTrace = true
	fullRes := rogueRun(t, opt2)

	if len(flightRes.Violations) == 0 || len(fullRes.Violations) == 0 {
		t.Fatal("scenario produced no violations")
	}
	v := fullRes.Violations[0]
	// The palette check fires before the violating compute's trace event
	// lands, so the dump holds exactly the events strictly before it.
	var prefix []sim.TraceEvent
	for _, ev := range fullRes.Trace {
		if ev.Event < v.Event {
			prefix = append(prefix, ev)
		}
	}
	if len(prefix) < k {
		t.Fatalf("only %d events before the violation; want > ring size %d", len(prefix), k)
	}
	tail := prefix[len(prefix)-k:]

	var want bytes.Buffer
	if err := trace.Encode(&want, trace.HeaderOf(fullRes), trace.ConvertEvents(tail)); err != nil {
		t.Fatalf("Encode: %v", err)
	}

	// Headers differ by design (partial counters + reason note); the
	// event lines must agree byte for byte.
	gotLines := bytes.SplitN(sink.Bytes(), []byte("\n"), 2)
	wantLines := bytes.SplitN(want.Bytes(), []byte("\n"), 2)
	if !bytes.Equal(gotLines[1], wantLines[1]) {
		t.Fatalf("flight event lines diverge from trace tail:\n got:\n%s\nwant:\n%s",
			gotLines[1], wantLines[1])
	}
}

func TestFlightRecorderDumpsOnNonConvergence(t *testing.T) {
	var sink bytes.Buffer
	f := NewFlightRecorder(4, &sink)
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(5, 0), geom.Pt(10, 0)}
	opt := sim.DefaultOptions(sched.NewFSync(), 1)
	opt.MaxEpochs = 3
	opt.Observer = f
	// A clean stay algorithm on a blocked line: no violation, but the
	// run ends without reaching CV — the recorder must still dump.
	res, err := sim.Run(&rogueAlgo{trigger: 1 << 30}, pts, opt)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if res.Reached {
		t.Fatal("blocked line unexpectedly reached CV")
	}
	if !f.Dumped() {
		t.Error("no dump on a non-converged run")
	}
}

// TestGoldenFlightDump pins the complete dump — header (with partial
// counters and reason note) plus ring events — byte for byte.
func TestGoldenFlightDump(t *testing.T) {
	var sink bytes.Buffer
	opt := rogueOptions()
	f := NewFlightRecorder(8, &sink)
	opt.Observer = f
	rogueRun(t, opt)

	golden := filepath.Join("testdata", "flight_rogue_fsync_n4_seed5.jsonl")
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, sink.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, sink.Len())
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("reading golden dump (regenerate with -update-golden): %v", err)
	}
	if !bytes.Equal(sink.Bytes(), want) {
		t.Fatalf("flight dump diverges from golden:\n got:\n%s\nwant:\n%s", sink.Bytes(), want)
	}
}

func TestFlightRecorderManualDump(t *testing.T) {
	f := NewFlightRecorder(4, nil)
	f.RunStart(sim.RunInfo{Algorithm: "x", N: 2})
	f.Event(sim.TraceEvent{Event: 0, Kind: "look"})
	var buf bytes.Buffer
	if err := f.DumpTo(&buf, "manual"); err != nil {
		t.Fatalf("DumpTo: %v", err)
	}
	h, evs, err := trace.ReadJSONL(&buf)
	if err != nil {
		t.Fatalf("ReadJSONL: %v", err)
	}
	if h.Algorithm != "x" || len(evs) != 1 {
		t.Errorf("header %+v, %d events", h, len(evs))
	}
	if f.Dumped() {
		t.Error("manual DumpTo must not consume the automatic dump")
	}
}
