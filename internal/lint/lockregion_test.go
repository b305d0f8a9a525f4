package lint_test

import (
	"regexp"
	"strings"
	"testing"

	"luxvis/internal/lint"
)

// lockRegionFixture pins the lock-region rules the three lock analyzers
// share beyond straight-line lock/unlock of a named field. Each
// "// want a, b" marker names the analyzers that report on that line.
const lockRegionFixture = `package rt

import "sync"

type store struct {
	mu sync.Mutex
	n  int
	ch chan int
}

// The early unlock ends the region in source order, so the send after
// the if is outside it (the documented approximation).
func (s *store) earlyUnlock(stop bool) {
	s.mu.Lock()
	if stop {
		s.mu.Unlock()
		return
	}
	s.n++
	s.ch <- s.n
	s.mu.Unlock()
}

// Unlock then relock: only the second region covers the receive.
func (s *store) relock() {
	s.mu.Lock()
	s.n++
	s.mu.Unlock()
	s.ch <- 1
	s.mu.Lock()
	<-s.ch // want locksafe
	s.mu.Unlock()
}

// The literal is invoked in place, so its lock calls belong to this
// frame; its deferred unlock runs when the literal returns, so the send
// after the literal is outside the region.
func (s *store) deferInLiteral() {
	func() {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.n++
	}()
	s.ch <- s.n
}

// *Locked helpers run under the caller's lock and are exempt from
// mutexdiscipline.
func (s *store) drainLocked() int {
	s.n = 0
	return <-s.ch // want locksafe
}

func (s *store) drain() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.drainLocked() // want locksafe
}

// A lock taken only on a goroutine still counts as locking somewhere in
// the body.
func (s *store) lockInGoroutine() {
	go func() {
		s.mu.Lock()
		s.n++
		s.mu.Unlock()
	}()
}

func (s *store) racy() int { return s.n } // want mutexdiscipline

type counter struct {
	sync.Mutex
	hits int
	ch   chan int
}

// An embedded mutex locked as c.Lock() is a region named after c.
func (c *counter) bump() {
	c.Lock()
	c.ch <- c.hits // want locksafe
	c.Unlock()
}

func (c *counter) peek() int { return c.hits } // want mutexdiscipline

type table struct {
	rw sync.RWMutex
	mu sync.Mutex
}

// Read locks take part in lock order: rw before mu here, mu before rw
// below.
func (t *table) readThenWrite() {
	t.rw.RLock()
	defer t.rw.RUnlock()
	t.mu.Lock() // want lockorder
	t.mu.Unlock()
}

func (t *table) writeThenRead() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.rw.RLock()
	t.rw.RUnlock()
}

// A deferred literal runs when the frame returns, so the unlock it
// defers holds the region to the end of the frame: the send is inside.
func (s *store) deferInDeferredLiteral() {
	s.mu.Lock()
	defer func() {
		defer s.mu.Unlock()
		s.n++
	}()
	s.ch <- s.n // want locksafe
}

// An embedded mutex locked through a parameter takes part in lock
// order under its promoted field's name: counter before store here,
// store before counter below.
func (c *counter) bumpThenStore(s *store) {
	c.Lock()
	defer c.Unlock()
	s.mu.Lock() // want lockorder
	s.mu.Unlock()
}

func (s *store) storeThenBump(c *counter) {
	s.mu.Lock()
	defer s.mu.Unlock()
	c.Lock()
	c.Unlock()
}
`

var wantAnalyzersRe = regexp.MustCompile(`// want ([a-z, ]+)$`)

// TestLockRegionRules runs locksafe, lockorder and mutexdiscipline over
// one fixture and checks each analyzer's finding lines exactly.
func TestLockRegionRules(t *testing.T) {
	analyzers := []lint.Analyzer{lint.LockSafe{}, lint.LockOrder{}, lint.MutexDiscipline{}}
	findings := runFixtureAll(t, "luxvis/internal/rt", lockRegionFixture, analyzers)
	want := map[string]map[int]bool{}
	for i, line := range strings.Split(lockRegionFixture, "\n") {
		m := wantAnalyzersRe.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		for _, name := range strings.Split(m[1], ",") {
			name = strings.TrimSpace(name)
			if want[name] == nil {
				want[name] = map[int]bool{}
			}
			want[name][i+1] = true
		}
	}
	for _, a := range analyzers {
		got := map[int]bool{}
		for _, f := range findingsOf(findings, a.Name()) {
			if got[f.Pos.Line] {
				t.Errorf("%s: second finding at line %d: %s", a.Name(), f.Pos.Line, f)
			}
			got[f.Pos.Line] = true
			if !want[a.Name()][f.Pos.Line] {
				t.Errorf("%s: unexpected finding at line %d: %s", a.Name(), f.Pos.Line, f)
			}
		}
		for line := range want[a.Name()] {
			if !got[line] {
				t.Errorf("%s: no finding at line %d", a.Name(), line)
			}
		}
	}
	// Each region is named after the mutex that opened it.
	held := map[int]string{
		31:  "while holding s.mu;",
		51:  "while holding the caller's lock;",
		57:  "calls drainLocked while holding s.mu,",
		70:  "(guarded by mu)",
		81:  "while holding c;",
		85:  "(guarded by Mutex)",
		97:  "acquires rt.table.mu while holding rt.table.rw,",
		116: "while holding s.mu;",
		125: "acquires rt.store.mu while holding rt.counter.Mutex,",
	}
	seen := map[int]bool{}
	for _, f := range findings {
		frag, ok := held[f.Pos.Line]
		if !ok {
			t.Errorf("line %d: finding %q has no expected message in held", f.Pos.Line, f.Message)
			continue
		}
		seen[f.Pos.Line] = true
		if !strings.Contains(f.Message, frag) {
			t.Errorf("line %d: message %q does not contain %q", f.Pos.Line, f.Message, frag)
		}
	}
	for line := range held {
		if !seen[line] {
			t.Errorf("line %d: no finding to check the message %q against", line, held[line])
		}
	}
}

// runFixtureAll is runFixture for several analyzers at once.
func runFixtureAll(t *testing.T, path, src string, analyzers []lint.Analyzer) []lint.Finding {
	t.Helper()
	pkg, err := lint.CheckSource(path, "fixture.go", src, nil)
	if err != nil {
		t.Fatalf("CheckSource(%s): %v", path, err)
	}
	return lint.Run([]*lint.Package{pkg}, analyzers)
}
