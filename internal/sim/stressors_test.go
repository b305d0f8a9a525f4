package sim

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"luxvis/internal/geom"
	"luxvis/internal/model"
	"luxvis/internal/sched"
)

// beaconProbe publishes Beacon when it sees two others (the middle of a
// collinear triple) and Off otherwise; nobody ever moves. Every snapshot
// delivered to an end robot (exactly one visible other) is recorded so
// tests can assert what survivors observe across a crash. Computes may
// run concurrently (see model.Algorithm), so the log is mutex-guarded,
// and a snapshot's Others is valid only during its Compute, so the log
// keeps a copy.
type beaconProbe struct {
	mu       sync.Mutex
	endSnaps []model.Snapshot
}

func (*beaconProbe) Name() string           { return "beacon-probe" }
func (*beaconProbe) Palette() []model.Color { return []model.Color{model.Off, model.Beacon} }
func (p *beaconProbe) Compute(s model.Snapshot) model.Action {
	if len(s.Others) == 1 {
		p.mu.Lock()
		p.endSnaps = append(p.endSnaps, model.Snapshot{Self: s.Self, Others: slices.Clone(s.Others)})
		p.mu.Unlock()
	}
	if len(s.Others) == 2 {
		return model.Stay(s.Self.Pos, model.Beacon)
	}
	return model.Stay(s.Self.Pos, model.Off)
}

// moveOnce relocates one unit up on its first cycle and then stays,
// marking completion with Done — a minimal mover for pinning the
// non-rigid truncation distributions.
type moveOnce struct{}

func (moveOnce) Name() string           { return "move-once" }
func (moveOnce) Palette() []model.Color { return []model.Color{model.Off, model.Done} }
func (moveOnce) Compute(s model.Snapshot) model.Action {
	if s.Self.Color == model.Done {
		return model.Stay(s.Self.Pos, model.Done)
	}
	return model.MoveTo(geom.Pt(s.Self.Pos.X, s.Self.Pos.Y+1), model.Done)
}

// jitterProbe stays forever and records every observed other-position;
// the log is mutex-guarded like beaconProbe's.
type jitterProbe struct {
	mu   sync.Mutex
	seen []geom.Point
}

func (*jitterProbe) Name() string           { return "jitter-probe" }
func (*jitterProbe) Palette() []model.Color { return []model.Color{model.Off} }
func (p *jitterProbe) Compute(s model.Snapshot) model.Action {
	p.mu.Lock()
	for _, o := range s.Others {
		p.seen = append(p.seen, o.Pos)
	}
	p.mu.Unlock()
	return model.Stay(s.Self.Pos, model.Off)
}

// multiStep wraps a scheduler to force multi-sub-step moves, so a
// robot is actually observable in the Moving stage between events.
type multiStep struct{ sched.Scheduler }

func (multiStep) MoveSteps(*rand.Rand) int { return 4 }

func square() []geom.Point {
	return []geom.Point{geom.Pt(0, 0), geom.Pt(4, 0), geom.Pt(4, 4), geom.Pt(0, 4)}
}

func TestStressorValidation(t *testing.T) {
	pts := square()
	base := func() Options { return DefaultOptions(sched.NewFSync(), 1) }

	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"crash robot out of range", func(o *Options) { o.Crashes = []CrashSpec{{Robot: 4}} }},
		{"crash robot negative", func(o *Options) { o.Crashes = []CrashSpec{{Robot: -1}} }},
		{"duplicate crash robot", func(o *Options) { o.Crashes = []CrashSpec{{Robot: 1}, {Robot: 1, AtEvent: 5}} }},
		{"no survivors", func(o *Options) {
			o.Crashes = []CrashSpec{{Robot: 0}, {Robot: 1}, {Robot: 2}, {Robot: 3}}
		}},
		{"negative AtEvent", func(o *Options) { o.Crashes = []CrashSpec{{Robot: 0, AtEvent: -3}} }},
		{"unknown stage", func(o *Options) { o.Crashes = []CrashSpec{{Robot: 0, Stage: sched.Moving + 1}} }},
		{"NaN jitter", func(o *Options) { o.SensorJitter = math.NaN() }},
		{"negative jitter", func(o *Options) { o.SensorJitter = -1e-9 }},
		{"infinite jitter", func(o *Options) { o.SensorJitter = math.Inf(1) }},
		{"unknown distribution", func(o *Options) { o.NonRigidDist = "gaussian" }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opt := base()
			tc.mut(&opt)
			if _, err := Run(stayAlgo{}, pts, opt); err == nil {
				t.Fatalf("want validation error, got nil")
			}
		})
	}
}

// TestCrashedLightVisibleToSurvivors pins the crash-fault observation
// model: a halted robot's frozen body and last published light stay in
// every survivor's snapshot, and it keeps obstructing lines of sight.
// Three collinear robots; the middle one lights Beacon on its first
// cycle and is then crashed. The end robots must forever observe exactly
// one other — the Beacon at the crash position — never each other.
func TestCrashedLightVisibleToSurvivors(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(2, 0)}
	probe := &beaconProbe{}
	opt := DefaultOptions(sched.NewFSync(), 7)
	opt.MaxEpochs = 6
	opt.RecordTrace = true
	// Fire after the first full epoch, once the middle robot has
	// published Beacon and returned to Idle.
	opt.Crashes = []CrashSpec{{Robot: 1, AtEvent: 6, Stage: sched.Idle}}

	res, err := Run(probe, pts, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 1 {
		t.Fatalf("Crashed = %v, want [1]", res.Crashed)
	}
	if res.FinalColors[1] != model.Beacon {
		t.Fatalf("crashed robot's frozen light = %v, want Beacon", res.FinalColors[1])
	}
	if res.Reached {
		// Survivors 0 and 2 are blocked by the frozen middle robot, so
		// survivor-CV must be false.
		t.Fatalf("Reached=true, but survivors are mutually obstructed by the crashed robot")
	}
	crashEvent := -1
	for _, ev := range res.Trace {
		if ev.Kind == "crash" {
			crashEvent = ev.Event
			if ev.Robot != 1 {
				t.Fatalf("crash trace event for robot %d, want 1", ev.Robot)
			}
		}
	}
	if crashEvent < 0 {
		t.Fatalf("no crash event in trace")
	}
	if len(probe.endSnaps) == 0 {
		t.Fatalf("end robots recorded no snapshots")
	}
	// After the first epoch every end-robot snapshot postdates the
	// Beacon publish; the tail ones postdate the crash too. All must
	// show exactly the frozen middle robot.
	last := probe.endSnaps[len(probe.endSnaps)-1]
	if len(last.Others) != 1 {
		t.Fatalf("survivor sees %d others, want 1 (crashed robot must occlude the far end)", len(last.Others))
	}
	if got := last.Others[0]; !got.Pos.Eq(geom.Pt(1, 0)) || got.Color != model.Beacon {
		t.Fatalf("survivor observes %v at %v, want Beacon at (1,0)", got.Color, got.Pos)
	}
}

// TestCrashPreservesPrefixDeterminism pins the deterministic-prefix
// contract: a run with an armed-but-late crash spec replays the clean
// run's event stream byte for byte until the fault fires.
func TestCrashPreservesPrefixDeterminism(t *testing.T) {
	pts := square()
	mk := func(crash []CrashSpec) Result {
		opt := DefaultOptions(sched.NewAsyncRandom(), 42)
		opt.MaxEpochs = 8
		opt.RecordTrace = true
		opt.Crashes = crash
		res, err := Run(&jitterProbe{}, pts, opt)
		if err != nil {
			t.Fatalf("Run: %v", err)
		}
		return res
	}
	clean := mk(nil)
	faulty := mk([]CrashSpec{{Robot: 2, AtEvent: 10, Stage: sched.Idle}})

	crashAt := -1
	for i, ev := range faulty.Trace {
		if ev.Kind == "crash" {
			crashAt = i
			break
		}
	}
	if crashAt < 0 {
		t.Fatalf("crash never fired")
	}
	for i := 0; i < crashAt; i++ {
		if clean.Trace[i] != faulty.Trace[i] {
			t.Fatalf("trace diverges before the crash at index %d: clean %+v, faulty %+v",
				i, clean.Trace[i], faulty.Trace[i])
		}
	}
}

// TestCrashAtQuiescentConfigKeepsSurvivorCV: crash one corner of a
// strictly convex swarm of stayers — the survivors remain in Complete
// Visibility (the frozen hull corner obstructs nothing) and the run
// terminates Reached with the fault on record.
func TestCrashAtQuiescentConfigKeepsSurvivorCV(t *testing.T) {
	opt := DefaultOptions(sched.NewFSync(), 3)
	opt.Crashes = []CrashSpec{{Robot: 3, AtEvent: 0, Stage: sched.Idle}}
	res, err := Run(stayAlgo{}, square(), opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Reached {
		t.Fatalf("survivors of a convex stay-swarm must reach survivor-CV; %+v", res)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 3 {
		t.Fatalf("Crashed = %v, want [3]", res.Crashed)
	}
}

// TestCrashMidMoveFreezesPartialPosition: a robot crashed in the Moving
// stage stops at its last completed sub-step, strictly between source
// and target.
func TestCrashMidMoveFreezesPartialPosition(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}
	opt := DefaultOptions(multiStep{sched.NewFSync()}, 5)
	opt.MaxEpochs = 8
	opt.Crashes = []CrashSpec{{Robot: 0, AtEvent: 0, Stage: sched.Moving}}
	res, err := Run(moveOnce{}, pts, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(res.Crashed) != 1 || res.Crashed[0] != 0 {
		t.Fatalf("Crashed = %v, want [0]", res.Crashed)
	}
	y := res.Final[0].Y
	if !(y > 0) || !(y < 1) {
		t.Fatalf("robot crashed mid-move ended at y=%v, want strictly inside (0, 1)", y)
	}
	// The survivor still finishes its own relocation.
	if d := math.Abs(res.Final[1].Y - 1); !(d < 1e-12) {
		t.Fatalf("survivor final y=%v, want 1", res.Final[1].Y)
	}
}

func TestNonRigidDistributions(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(3, 0)}
	final := func(dist NonRigidDist, seed int64) []geom.Point {
		opt := DefaultOptions(sched.NewFSync(), seed)
		opt.NonRigid = true
		opt.MinMoveFrac = 0.5
		opt.NonRigidDist = dist
		res, err := Run(moveOnce{}, pts, opt)
		if err != nil {
			t.Fatalf("Run(%s): %v", dist, err)
		}
		return res.Final
	}

	// The empty default and the explicit uniform name are the same
	// distribution drawn from the same stream: identical finals.
	f0, fu := final("", 11), final(NonRigidUniform, 11)
	for i := range f0 {
		if !f0[i].Eq(fu[i]) {
			t.Fatalf("empty and uniform dist diverge: %v vs %v", f0, fu)
		}
	}
	for i := range f0 {
		if y := f0[i].Y; !(y >= 0.5) || !(y <= 1) {
			t.Fatalf("uniform truncation y=%v outside [0.5, 1]", y)
		}
	}

	// Minimal: every move cut to exactly the guaranteed fraction.
	for _, p := range final(NonRigidMinimal, 11) {
		if d := math.Abs(p.Y - 0.5); !(d < 1e-15) {
			t.Fatalf("minimal truncation y=%v, want exactly 0.5", p.Y)
		}
	}

	// Quadratic: inside [0.5, 1] like uniform, but a valid draw.
	for _, p := range final(NonRigidQuadratic, 11) {
		if y := p.Y; !(y >= 0.5) || !(y <= 1) {
			t.Fatalf("quadratic truncation y=%v outside [0.5, 1]", y)
		}
	}

	// Bimodal: every move ends at exactly the floor or exactly the
	// target, never in between.
	for seed := int64(1); seed <= 8; seed++ {
		for _, p := range final(NonRigidBimodal, seed) {
			dFloor := math.Abs(p.Y - 0.5)
			dFull := math.Abs(p.Y - 1)
			if !(dFloor < 1e-15) && !(dFull < 1e-15) {
				t.Fatalf("bimodal truncation y=%v, want 0.5 or 1", p.Y)
			}
		}
	}
}

// TestSensorJitterPerturbsOnlyObservations: with jitter enabled the
// world, the trace and the final configuration stay exact; only the
// snapshots handed to Compute wobble, each observed position within the
// amplitude of its true one.
func TestSensorJitterPerturbsOnlyObservations(t *testing.T) {
	pts := square()
	const J = 1e-3
	probe := &jitterProbe{}
	opt := DefaultOptions(sched.NewFSync(), 9)
	opt.SensorJitter = J
	res, err := Run(probe, pts, opt)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Reached {
		t.Fatalf("stay-swarm in convex position must quiesce under jitter")
	}
	for i, p := range res.Final {
		if !p.Eq(pts[i]) {
			t.Fatalf("jitter moved the world: robot %d at %v, started %v", i, p, pts[i])
		}
	}
	if len(probe.seen) == 0 {
		t.Fatalf("probe recorded no observations")
	}
	perturbed := false
	for _, q := range probe.seen {
		best := math.Inf(1)
		exactHit := false
		for _, p := range pts {
			dx, dy := math.Abs(q.X-p.X), math.Abs(q.Y-p.Y)
			if dx <= J && dy <= J {
				if d := math.Max(dx, dy); d < best {
					best = d
				}
				if q.Eq(p) {
					exactHit = true
				}
			}
		}
		if math.IsInf(best, 1) {
			t.Fatalf("observed position %v is not within jitter %v of any robot", q, J)
		}
		if !exactHit {
			perturbed = true
		}
	}
	if !perturbed {
		t.Fatalf("jitter of %v never perturbed any observation", J)
	}

	// The scheduler stream is untouched by jitter: same seed, same
	// algorithm, same event count with and without it.
	optClean := DefaultOptions(sched.NewFSync(), 9)
	clean, err := Run(&jitterProbe{}, pts, optClean)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if clean.Events != res.Events || clean.Epochs != res.Epochs {
		t.Fatalf("jitter changed the interleaving: %d events/%d epochs vs clean %d/%d",
			res.Events, res.Epochs, clean.Events, clean.Epochs)
	}
}

// TestJitterOffset pins the jitter generator's contract: an offset
// is a pure function of (seed, robot, Look index, slot, axis), stays
// within the amplitude, moves when any one key moves, and robot 0's
// offsets are not the draws of a math/rand source of the run's seed —
// the goroutine runtime seeds robot 0's delay stream with exactly that
// source.
func TestJitterOffset(t *testing.T) {
	const J = 0.25
	type key struct{ seed, robot, look, slot, axis int }
	offset := func(k key) float64 {
		s := Jitter{Seed: int64(k.seed), Amp: J}
		return s.offset(s.lookKey(k.robot, k.look), k.slot, k.axis)
	}
	base := key{seed: 7, robot: 3, look: 5, slot: 2, axis: 0}
	for _, c := range []struct {
		name string
		k    key
	}{
		{"seed", key{8, 3, 5, 2, 0}},
		{"robot", key{7, 4, 5, 2, 0}},
		{"look", key{7, 3, 6, 2, 0}},
		{"slot", key{7, 3, 5, 3, 0}},
		{"axis", key{7, 3, 5, 2, 1}},
		{"robot 0", key{7, 0, 5, 2, 0}},
		{"negative seed", key{-7, 3, 5, 2, 0}},
	} {
		if a, b := offset(base), offset(c.k); a == b {
			t.Errorf("changing the %s leaves the offset at %v", c.name, a)
		}
	}
	for seed := 0; seed < 4; seed++ {
		for robot := 0; robot < 8; robot++ {
			for look := 0; look < 8; look++ {
				for slot := 0; slot < 8; slot++ {
					for axis := 0; axis < 2; axis++ {
						k := key{seed, robot, look, slot, axis}
						o := offset(k)
						if !(o >= -J && o <= J) {
							t.Fatalf("%+v: offset %v outside [-%v, %v]", k, o, J, J)
						}
						if again := offset(k); again != o {
							t.Fatalf("%+v: offset %v, then %v", k, o, again)
						}
					}
				}
			}
		}
	}
	for _, seed := range []int{0, 1, 7} {
		rng := rand.New(rand.NewSource(int64(seed)))
		for slot := 0; slot < 4; slot++ {
			for axis := 0; axis < 2; axis++ {
				draw := (2*rng.Float64() - 1) * J
				if o := offset(key{seed, 0, 0, slot, axis}); o == draw {
					t.Errorf("seed %d: robot 0's offset at slot %d axis %d is the math/rand draw %v", seed, slot, axis, draw)
				}
			}
		}
	}
}
