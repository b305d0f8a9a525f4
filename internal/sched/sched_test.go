package sched

import (
	"math/rand"
	"strings"
	"testing"
)

// fakeEngine advances robot stages the way the real engine does, so the
// scheduler policies can be exercised without geometry: Look → Compute →
// (steps × MoveStep) → Idle with cycle count incremented. Every robot
// always "moves", taking the scheduler's step count.
type fakeEngine struct {
	st    []Status
	steps []int
	now   int
}

func newFakeEngine(n int) *fakeEngine {
	fe := &fakeEngine{st: make([]Status, n), steps: make([]int, n)}
	for i := range fe.st {
		fe.st[i].LastEvent = -1
	}
	return fe
}

func (fe *fakeEngine) advance(s Scheduler, rng *rand.Rand) int {
	r := s.Next(fe.st, fe.now, rng)
	if r < 0 || r >= len(fe.st) {
		panic("scheduler returned invalid robot")
	}
	switch fe.st[r].Stage {
	case Idle:
		fe.st[r].Stage = Looked
	case Looked:
		fe.st[r].Stage = Computed
		fe.steps[r] = s.MoveSteps(rng)
		fe.st[r].StepsLeft = fe.steps[r]
	case Computed:
		fe.st[r].Stage = Moving
		fe.st[r].StepsLeft--
		if fe.st[r].StepsLeft == 0 {
			fe.st[r].Stage = Idle
			fe.st[r].Cycles++
		}
	case Moving:
		fe.st[r].StepsLeft--
		if fe.st[r].StepsLeft <= 0 {
			fe.st[r].Stage = Idle
			fe.st[r].Cycles++
		}
	}
	fe.now++
	fe.st[r].LastEvent = fe.now
	return r
}

func TestStageString(t *testing.T) {
	for s, want := range map[Stage]string{Idle: "idle", Looked: "looked", Computed: "computed", Moving: "moving"} {
		if got := s.String(); got != want {
			t.Errorf("Stage %d = %q", s, got)
		}
	}
}

func TestFSyncLockstep(t *testing.T) {
	const n = 5
	fe := newFakeEngine(n)
	s := NewFSync()
	s.Reset(n)
	rng := rand.New(rand.NewSource(1))

	// The first n events must be Looks of all n robots (no Compute
	// before every robot has Looked).
	seen := map[int]bool{}
	for i := 0; i < n; i++ {
		r := fe.advance(s, rng)
		if seen[r] {
			t.Fatalf("robot %d activated twice during Look wave", r)
		}
		seen[r] = true
		if fe.st[r].Stage != Looked {
			t.Fatalf("event %d was not a Look", i)
		}
	}
	// Next n events are Computes.
	for i := 0; i < n; i++ {
		r := fe.advance(s, rng)
		if fe.st[r].Stage != Computed && fe.st[r].Stage != Idle {
			t.Fatalf("wave 2 event %d: stage %v", i, fe.st[r].Stage)
		}
	}
	// Run several full rounds: cycle counts must stay balanced (lockstep).
	for i := 0; i < 500; i++ {
		fe.advance(s, rng)
		min, max := fe.st[0].Cycles, fe.st[0].Cycles
		for _, st := range fe.st {
			if st.Cycles < min {
				min = st.Cycles
			}
			if st.Cycles > max {
				max = st.Cycles
			}
		}
		if max-min > 1 {
			t.Fatalf("FSYNC cycle imbalance: min=%d max=%d", min, max)
		}
	}
}

func TestFSyncMoveSteps(t *testing.T) {
	if got := NewFSync().MoveSteps(rand.New(rand.NewSource(1))); got != 1 {
		t.Errorf("FSYNC MoveSteps = %d", got)
	}
}

func TestSSyncRounds(t *testing.T) {
	const n = 8
	fe := newFakeEngine(n)
	s := NewSSync(0.5)
	s.Reset(n)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 5000; i++ {
		fe.advance(s, rng)
	}
	if s.Rounds() == 0 {
		t.Fatal("no SSYNC rounds completed")
	}
	// Every robot must make progress over many rounds (selection is
	// random but unbiased).
	for i, st := range fe.st {
		if st.Cycles == 0 {
			t.Errorf("robot %d starved across %d rounds", i, s.Rounds())
		}
	}
}

func TestSSyncDefaultProbability(t *testing.T) {
	if s := NewSSync(0); s.P != 0.5 {
		t.Errorf("default P = %v", s.P)
	}
	if s := NewSSync(2); s.P != 0.5 {
		t.Errorf("clamped P = %v", s.P)
	}
	if s := NewSSync(0.25); s.P != 0.25 {
		t.Errorf("explicit P = %v", s.P)
	}
}

func TestSSyncAtomicRounds(t *testing.T) {
	// With selection probability 1 every robot runs every round, so
	// SSYNC degenerates to lockstep: cycle counts never differ by more
	// than 1. (With p < 1 the spread legitimately drifts with selection
	// luck, so lockstep is only checkable at p = 1.)
	const n = 6
	fe := newFakeEngine(n)
	s := NewSSync(1)
	s.Reset(n)
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 3000; i++ {
		fe.advance(s, rng)
		min, max := fe.st[0].Cycles, fe.st[0].Cycles
		for _, st := range fe.st {
			if st.Cycles < min {
				min = st.Cycles
			}
			if st.Cycles > max {
				max = st.Cycles
			}
		}
		if max-min > 1 {
			t.Fatalf("SSYNC(p=1) not lockstep: spread %d", max-min)
		}
	}
}

// TestMostStarvedTable pins the starvation detector's edges directly:
// the helper every fairness window is built on must be safe on an empty
// status slice, pick the oldest robot (lowest index on ties) when the
// whole swarm is past the window, and stay quiet while everyone is
// fresh.
func TestMostStarvedTable(t *testing.T) {
	cases := []struct {
		name   string
		st     []Status
		now    int
		window int
		want   int
	}{
		{"empty status slice", nil, 100, 10, -1},
		{"single robot fresh", []Status{{LastEvent: 95}}, 100, 10, -1},
		{"single robot starved", []Status{{LastEvent: 0}}, 100, 10, 0},
		{"single robot exactly at window", []Status{{LastEvent: 90}}, 100, 10, 0},
		{"single robot one inside window", []Status{{LastEvent: 91}}, 100, 10, -1},
		{"never-activated sentinel", []Status{{LastEvent: -1}}, 0, 10, -1},
		{"all starved picks oldest", []Status{{LastEvent: 5}, {LastEvent: 2}, {LastEvent: 8}}, 100, 10, 1},
		{"all-starved tie keeps lowest index", []Status{{LastEvent: 2}, {LastEvent: 2}, {LastEvent: 2}}, 100, 10, 0},
		{"one starved among fresh", []Status{{LastEvent: 99}, {LastEvent: 3}, {LastEvent: 98}}, 100, 10, 1},
		{"nobody starved", []Status{{LastEvent: 99}, {LastEvent: 97}, {LastEvent: 98}}, 100, 10, -1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if got := mostStarved(tc.st, tc.now, tc.window); got != tc.want {
				t.Errorf("mostStarved(%v, now=%d, window=%d) = %d, want %d",
					tc.st, tc.now, tc.window, got, tc.want)
			}
		})
	}
}

// TestSSyncRoundDoneTable drives the round-boundary predicate through
// its degenerate shapes: the empty swarm, a vacuously-done round with
// nobody selected, and the single-robot swarm where every round is a
// solo cycle.
func TestSSyncRoundDoneTable(t *testing.T) {
	cases := []struct {
		name     string
		selected []bool
		base     []int
		cycles   []int
		want     bool
	}{
		{"empty status slice", nil, nil, nil, true},
		{"nobody selected is vacuously done", []bool{false, false}, []int{0, 0}, []int{0, 0}, true},
		{"single robot pending", []bool{true}, []int{0}, []int{0}, false},
		{"single robot done", []bool{true}, []int{0}, []int{1}, true},
		{"unselected progress does not count", []bool{true, false}, []int{0, 0}, []int{0, 5}, false},
		{"unselected laggard does not block", []bool{false, true}, []int{0, 0}, []int{0, 1}, true},
		{"all selected, one pending", []bool{true, true, true}, []int{2, 2, 2}, []int{3, 2, 3}, false},
		{"all selected, all done", []bool{true, true, true}, []int{2, 2, 2}, []int{3, 3, 3}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s := NewSSync(0.5)
			s.selected = tc.selected
			s.base = tc.base
			st := make([]Status, len(tc.cycles))
			for i, c := range tc.cycles {
				st[i].Cycles = c
			}
			if got := s.roundDone(st); got != tc.want {
				t.Errorf("roundDone(selected=%v base=%v cycles=%v) = %v, want %v",
					tc.selected, tc.base, tc.cycles, got, tc.want)
			}
		})
	}
}

func TestAsyncRandomFairness(t *testing.T) {
	const n = 10
	fe := newFakeEngine(n)
	s := NewAsyncRandom()
	s.Reset(n)
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 20000; i++ {
		fe.advance(s, rng)
	}
	for i, st := range fe.st {
		if st.Cycles < 100 {
			t.Errorf("robot %d completed only %d cycles", i, st.Cycles)
		}
	}
}

func TestAsyncRandomStarvationWindow(t *testing.T) {
	// With a tiny fairness window, the most starved robot is forced.
	const n = 4
	s := &AsyncRandom{MaxSubSteps: 1, Window: 8}
	s.Reset(n)
	st := make([]Status, n)
	for i := range st {
		st[i].LastEvent = 100
	}
	st[2].LastEvent = 0 // starved beyond the window
	rng := rand.New(rand.NewSource(5))
	if got := s.Next(st, 108, rng); got != 2 {
		t.Errorf("starved robot not prioritized: got %d", got)
	}
}

func TestAsyncRandomMoveStepsRange(t *testing.T) {
	s := NewAsyncRandom()
	rng := rand.New(rand.NewSource(6))
	for i := 0; i < 1000; i++ {
		steps := s.MoveSteps(rng)
		if steps < 1 || steps > s.MaxSubSteps {
			t.Fatalf("MoveSteps = %d outside [1, %d]", steps, s.MaxSubSteps)
		}
	}
}

func TestAsyncStaleWaves(t *testing.T) {
	const n = 6
	fe := newFakeEngine(n)
	s := NewAsyncStale()
	s.Reset(n)
	rng := rand.New(rand.NewSource(7))

	// Phase 1: the first n events must be Looks of all robots.
	for i := 0; i < n; i++ {
		r := fe.advance(s, rng)
		if fe.st[r].Stage != Looked {
			t.Fatalf("stale wave event %d was not a Look", i)
		}
	}
	// Then all Computes.
	for i := 0; i < n; i++ {
		r := fe.advance(s, rng)
		if fe.st[r].Stage != Computed {
			t.Fatalf("stale wave event %d was not a Compute", i)
		}
	}
	// Then moves execute serially: at most one robot in Moving stage at
	// any time.
	for i := 0; i < n*s.SubSteps; i++ {
		fe.advance(s, rng)
		moving := 0
		for _, st := range fe.st {
			if st.Stage == Moving {
				moving++
			}
		}
		if moving > 1 {
			t.Fatalf("stale adversary allowed %d concurrent movers", moving)
		}
	}
	// Long run: all robots progress (waves are fair).
	for i := 0; i < 10000; i++ {
		fe.advance(s, rng)
	}
	for i, st := range fe.st {
		if st.Cycles < 50 {
			t.Errorf("robot %d completed only %d cycles under stale adversary", i, st.Cycles)
		}
	}
}

// refAsyncStale is the original AsyncStale policy, which rescans the
// status vector for the minimum cycle count once per Idle robot (O(n²)
// per Next). It pins the decisions of the O(n) implementation.
type refAsyncStale struct{ order []int }

func (a *refAsyncStale) Next(st []Status, _ int, rng *rand.Rand) int {
	allIdle := true
	for _, t := range st {
		if t.Stage != Idle {
			allIdle = false
			break
		}
	}
	if allIdle || a.order == nil || len(a.order) != len(st) {
		a.order = rng.Perm(len(st))
	}
	for i, t := range st {
		if t.Stage == Idle && !refBehind(st, i) {
			return i
		}
	}
	for i, t := range st {
		if t.Stage == Looked {
			return i
		}
	}
	for _, i := range a.order {
		if st[i].Stage == Moving {
			return i
		}
	}
	for _, i := range a.order {
		if st[i].Stage == Computed {
			return i
		}
	}
	return 0
}

func refBehind(st []Status, i int) bool {
	min := st[0].Cycles
	for _, t := range st[1:] {
		if t.Cycles < min {
			min = t.Cycles
		}
	}
	return st[i].Cycles > min
}

// TestAsyncStaleMatchesReference drives AsyncStale and the reference
// policy over the same status vectors from equal RNG seeds: engine-like
// stretches interleaved with fully randomized vectors (arbitrary stages
// and cycle counts, including sizes that change between calls). Every
// returned index and the RNG state after every call must agree.
func TestAsyncStaleMatchesReference(t *testing.T) {
	const steps = 20000
	gen := rand.New(rand.NewSource(14))
	s := NewAsyncStale()
	ref := &refAsyncStale{}
	rngS := rand.New(rand.NewSource(99))
	rngR := rand.New(rand.NewSource(99))
	fe := newFakeEngine(8)
	s.Reset(len(fe.st))
	for step := 0; step < steps; step++ {
		if gen.Intn(16) == 0 {
			n := 1 + gen.Intn(24)
			fe = newFakeEngine(n)
			base := gen.Intn(5)
			for i := range fe.st {
				fe.st[i].Stage = Stage(gen.Intn(4))
				fe.st[i].Cycles = base + gen.Intn(3)
				if fe.st[i].Stage == Moving || fe.st[i].Stage == Computed {
					fe.st[i].StepsLeft = 1 + gen.Intn(s.SubSteps)
				}
			}
		}
		want := ref.Next(fe.st, fe.now, rngR)
		if got := fe.advance(s, rngS); got != want {
			t.Fatalf("step %d: Next = %d, reference = %d", step, got, want)
		}
		if a, b := rngS.Int63(), rngR.Int63(); a != b {
			t.Fatalf("step %d: RNG streams diverged (%d vs %d)", step, a, b)
		}
	}
}

// BenchmarkAsyncStaleNext measures one scheduling decision of the
// staleness adversary over a 512-robot swarm driven through its waves.
func BenchmarkAsyncStaleNext(b *testing.B) {
	const n = 512
	fe := newFakeEngine(n)
	s := NewAsyncStale()
	s.Reset(n)
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fe.advance(s, rng)
	}
}

func TestByName(t *testing.T) {
	for _, name := range Names() {
		s := ByName(name)
		if s == nil || s.Name() != name {
			t.Errorf("ByName(%q) = %v", name, s)
		}
	}
	if ByName("async").Name() != "async-random" {
		t.Error("alias async not resolved")
	}
	if ByName("round-robin").Name() != "async-rr" {
		t.Error("alias round-robin not resolved")
	}
	defer func() {
		if recover() == nil {
			t.Error("unknown scheduler name did not panic")
		}
	}()
	ByName("nope")
}

func TestAsyncRoundRobinDeterministic(t *testing.T) {
	const n = 5
	mk := func() []int {
		fe := newFakeEngine(n)
		s := NewAsyncRoundRobin()
		s.Reset(n)
		rng := rand.New(rand.NewSource(99))
		var order []int
		for i := 0; i < 200; i++ {
			order = append(order, fe.advance(s, rng))
		}
		return order
	}
	a, b := mk(), mk()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("round-robin diverged at event %d", i)
		}
	}
	// Coverage: every robot progresses.
	fe := newFakeEngine(n)
	s := NewAsyncRoundRobin()
	s.Reset(n)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		fe.advance(s, rng)
	}
	for i, st := range fe.st {
		if st.Cycles == 0 {
			t.Errorf("robot %d starved under round-robin", i)
		}
	}
}

func TestByNameErr(t *testing.T) {
	for _, name := range Names() {
		s, err := ByNameErr(name)
		if err != nil || s == nil {
			t.Fatalf("ByNameErr(%q) = %v, %v", name, s, err)
		}
		if s.Name() != name {
			t.Fatalf("ByNameErr(%q).Name() = %q", name, s.Name())
		}
	}
	s, err := ByNameErr("bogus")
	if err == nil || s != nil {
		t.Fatalf("ByNameErr(bogus) = %v, %v; want nil, error", s, err)
	}
	for _, name := range Names() {
		if !strings.Contains(err.Error(), name) {
			t.Fatalf("ByNameErr(bogus) error %q does not list %q", err, name)
		}
	}
}

func TestByNamePanicListsKnownNames(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("ByName(bogus) did not panic")
		}
		msg, ok := r.(string)
		if !ok || !strings.Contains(msg, "fsync") {
			t.Fatalf("ByName(bogus) panic %v does not list known schedulers", r)
		}
	}()
	ByName("bogus")
}
