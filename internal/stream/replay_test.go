package stream

import (
	"bytes"
	"context"
	"errors"
	"io"
	"testing"
	"time"

	"luxvis/internal/config"
	"luxvis/internal/core"
	"luxvis/internal/sched"
	"luxvis/internal/sim"
	"luxvis/internal/trace"
)

// sliceSource serves a fixed frame slice — a deterministic Source for
// pacing and filter tests.
type sliceSource struct {
	frames []Frame
	i      int
}

func (s *sliceSource) Next(ctx context.Context) (Frame, error) {
	if s.i >= len(s.frames) {
		return Frame{}, io.EOF
	}
	f := s.frames[s.i]
	s.i++
	return f, nil
}

func makeFrames(events int) []Frame {
	frames := []Frame{{Seq: 1, Kind: "header", Data: []byte(`{"kind":"header"}`)}}
	for i := 0; i < events; i++ {
		frames = append(frames, Frame{
			Seq:   uint64(i + 2),
			Kind:  "look",
			Epoch: i / 4, // 4 events per epoch
			Data:  []byte(`{"kind":"look"}`),
		})
	}
	return frames
}

// TestReplayPacing: with Speed set, every event frame waits one interval
// of 1/(DefaultReplayEventsPerSec*Speed); the header frame is never
// paced. A fake Sleep makes the assertion exact.
func TestReplayPacing(t *testing.T) {
	var sleeps []time.Duration
	opt := ReplayOptions{
		Speed: 2,
		Sleep: func(ctx context.Context, d time.Duration) error {
			sleeps = append(sleeps, d)
			return nil
		},
	}
	var emitted []Frame
	err := Replay(context.Background(), &sliceSource{frames: makeFrames(20)}, opt,
		func(f Frame) error { emitted = append(emitted, f); return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(emitted) != 21 {
		t.Fatalf("emitted %d frames, want 21", len(emitted))
	}
	if len(sleeps) != 20 {
		t.Fatalf("slept %d times, want once per event frame (20)", len(sleeps))
	}
	want := time.Duration(float64(time.Second) / (DefaultReplayEventsPerSec * 2))
	for i, d := range sleeps {
		if d != want {
			t.Fatalf("sleep %d was %v, want %v", i, d, want)
		}
	}
}

// TestReplayUnpaced: Speed 0 emits as fast as the sink accepts — the
// Sleep hook must never fire.
func TestReplayUnpaced(t *testing.T) {
	opt := ReplayOptions{
		Speed: 0,
		Sleep: func(ctx context.Context, d time.Duration) error {
			t.Fatal("Sleep called with Speed=0")
			return nil
		},
	}
	n := 0
	err := Replay(context.Background(), &sliceSource{frames: makeFrames(50)}, opt,
		func(Frame) error { n++; return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != 51 {
		t.Fatalf("emitted %d frames, want 51", n)
	}
}

// TestReplayFromEpoch: the epoch seek forwards the header plus only the
// event frames stamped at or after the requested epoch.
func TestReplayFromEpoch(t *testing.T) {
	var emitted []Frame
	err := Replay(context.Background(), &sliceSource{frames: makeFrames(20)},
		ReplayOptions{FromEpoch: 3},
		func(f Frame) error { emitted = append(emitted, f); return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if emitted[0].Kind != "header" {
		t.Fatalf("first emitted frame %q, want the header regardless of seek", emitted[0].Kind)
	}
	// Epochs 0,1,2 (12 events) skipped; epochs 3,4 (8 events) kept.
	if len(emitted) != 9 {
		t.Fatalf("emitted %d frames, want 9 (header + 8 events of epoch >= 3)", len(emitted))
	}
	for _, f := range emitted[1:] {
		if f.Epoch < 3 {
			t.Fatalf("frame seq %d epoch %d leaked through FromEpoch=3", f.Seq, f.Epoch)
		}
	}
}

// TestReplayAfterSeq: the file-replay resume cursor skips everything the
// client already has, header included.
func TestReplayAfterSeq(t *testing.T) {
	var emitted []Frame
	err := Replay(context.Background(), &sliceSource{frames: makeFrames(20)},
		ReplayOptions{AfterSeq: 15},
		func(f Frame) error { emitted = append(emitted, f); return nil })
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if len(emitted) != 6 {
		t.Fatalf("emitted %d frames, want 6 (seqs 16..21)", len(emitted))
	}
	if emitted[0].Seq != 16 {
		t.Fatalf("first emitted seq %d, want 16", emitted[0].Seq)
	}
}

// TestReplayErrorPropagation: sink errors and cancelled pacing waits
// surface from Replay.
func TestReplayErrorPropagation(t *testing.T) {
	sinkErr := errors.New("client went away")
	err := Replay(context.Background(), &sliceSource{frames: makeFrames(5)},
		ReplayOptions{}, func(Frame) error { return sinkErr })
	if err != sinkErr {
		t.Fatalf("sink error: got %v, want %v", err, sinkErr)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err = Replay(ctx, &sliceSource{frames: makeFrames(5)},
		ReplayOptions{Speed: 1}, func(Frame) error { return nil })
	if err != context.Canceled {
		t.Fatalf("cancelled pacing: got %v, want context.Canceled", err)
	}
}

// TestFileSourceForwardsBytes: replaying a stored trace re-emits every
// line byte-identical — concatenating the frames reconstructs the file.
func TestFileSourceForwardsBytes(t *testing.T) {
	pts := config.Generate(config.Uniform, 8, 3)
	opt := sim.DefaultOptions(sched.NewAsyncRandom(), 3)
	opt.RecordTrace = true
	res, err := sim.Run(core.NewLogVis(), pts, opt)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	var stored bytes.Buffer
	if err := trace.WriteJSONL(&stored, res); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}

	src, dec, err := NewFileSource(bytes.NewReader(stored.Bytes()))
	if err != nil {
		t.Fatalf("NewFileSource: %v", err)
	}
	if dec.Header().N != 8 {
		t.Fatalf("decoder header N=%d, want 8", dec.Header().N)
	}
	var rebuilt bytes.Buffer
	seq := uint64(0)
	err = Replay(context.Background(), src, ReplayOptions{}, func(f Frame) error {
		if f.Seq != seq+1 {
			t.Fatalf("seq %d after %d: file sources must number like a live hub", f.Seq, seq)
		}
		seq = f.Seq
		rebuilt.Write(f.Data)
		rebuilt.WriteByte('\n')
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if !bytes.Equal(rebuilt.Bytes(), stored.Bytes()) {
		t.Fatalf("replayed stream is not byte-identical to the stored trace (%d vs %d bytes)",
			rebuilt.Len(), stored.Len())
	}
}

// TestLiveStreamMatchesStoredTrace is the byte-compatibility contract
// from the issue: attach a hub to a real engine run that also records
// its trace, and every event frame the hub published must be
// byte-identical to the corresponding line of the stored trace. Only the
// headers differ (the live one cannot know the totals yet). The full
// live stream must also parse with the stored-trace decoder.
func TestLiveStreamMatchesStoredTrace(t *testing.T) {
	h := NewHub(HubOptions{History: 1 << 17})
	pts := config.Generate(config.Uniform, 8, 3)
	opt := sim.DefaultOptions(sched.NewAsyncRandom(), 3)
	opt.RecordTrace = true
	opt.Observer = h
	res, err := sim.Run(core.NewLogVis(), pts, opt)
	if err != nil {
		t.Fatalf("sim.Run: %v", err)
	}
	if h.EndNote() == nil {
		t.Fatal("hub not closed by RunEnd")
	}

	var stored bytes.Buffer
	if err := trace.WriteJSONL(&stored, res); err != nil {
		t.Fatalf("WriteJSONL: %v", err)
	}
	storedLines := bytes.Split(bytes.TrimRight(stored.Bytes(), "\n"), []byte("\n"))

	s := h.Subscribe(0)
	defer s.Close()
	frames := drain(t, s)
	if s.Gap() != 0 {
		t.Fatalf("run overflowed the history ring (gap %d); grow History", s.Gap())
	}
	if len(frames) != len(storedLines) {
		t.Fatalf("live stream has %d frames, stored trace %d lines", len(frames), len(storedLines))
	}
	if frames[0].Kind != "header" {
		t.Fatalf("first frame kind %q, want header", frames[0].Kind)
	}
	for i := 1; i < len(frames); i++ {
		if !bytes.Equal(frames[i].Data, storedLines[i]) {
			t.Fatalf("event line %d differs:\n live: %s\nfile: %s", i, frames[i].Data, storedLines[i])
		}
	}

	// The live stream, reassembled, parses with the stored-trace decoder.
	var live bytes.Buffer
	for _, f := range frames {
		live.Write(f.Data)
		live.WriteByte('\n')
	}
	dec, err := trace.NewDecoder(bytes.NewReader(live.Bytes()))
	if err != nil {
		t.Fatalf("live stream does not decode as a trace: %v", err)
	}
	if dec.Header().Note == "" {
		t.Fatal("live header missing the live-stream note")
	}
	n := 0
	for {
		if _, err := dec.Next(); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decoding live stream event %d: %v", n, err)
		}
		n++
	}
	if n != len(res.Trace) {
		t.Fatalf("decoded %d events from live stream, engine recorded %d", n, len(res.Trace))
	}
}
