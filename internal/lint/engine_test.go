package lint_test

import (
	"runtime"
	"strings"
	"testing"

	"luxvis/internal/lint"
)

// fixturePackages assembles a mixed bag of packages with known findings
// across several analyzers — the raw material for the determinism test.
func fixturePackages(t *testing.T) []*lint.Package {
	t.Helper()
	specs := []struct {
		path, src string
	}{
		{"luxvis/internal/fixa", locksafeFixture},
		{"luxvis/internal/fixb", atomicmixFixture},
		{"luxvis/internal/obs", errsinkFixture},
		{"luxvis/internal/serve", wireformatFixture},
	}
	var pkgs []*lint.Package
	for _, s := range specs {
		p, err := lint.CheckSource(s.path, "fixture.go", s.src, nil)
		if err != nil {
			t.Fatalf("CheckSource(%s): %v", s.path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

func render(fs []lint.Finding) string {
	var b strings.Builder
	for _, f := range fs {
		b.WriteString(f.String())
		b.WriteByte('\n')
	}
	return b.String()
}

// TestParallelDeterminism is the satellite guarantee: the engine's
// output is byte-for-byte identical at any worker count (one per
// GOMAXPROCS). Fixture packages carry real findings so the comparison
// is not vacuous.
func TestParallelDeterminism(t *testing.T) {
	pkgs := fixturePackages(t)
	procs := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(procs) })
	seq := render(lint.Run(pkgs, lint.All()))
	if !strings.Contains(seq, "locksafe") || !strings.Contains(seq, "errsink") {
		t.Fatalf("sequential run lost expected findings:\n%s", seq)
	}
	runtime.GOMAXPROCS(2 * procs)
	for try := 0; try < 5; try++ {
		par := render(lint.Run(pkgs, lint.All()))
		if par != seq {
			t.Fatalf("parallel output differs from sequential (try %d):\n--- sequential ---\n%s--- parallel ---\n%s", try, seq, par)
		}
	}
}

// TestStaleDirective: an allow-directive that suppresses nothing in a
// run of its analyzer is itself an error.
func TestStaleDirective(t *testing.T) {
	src := `package fixture

//lint:allow floateq this exception no longer suppresses anything
func fine(a, b int) bool { return a == b }
`
	findings := runFixture(t, "luxvis/internal/fixture", src, lint.FloatEq{})
	if len(findings) != 1 {
		t.Fatalf("findings = %v; want exactly the stale-directive error", findings)
	}
	f := findings[0]
	if f.Analyzer != "directive" || f.Severity != lint.Error ||
		!strings.Contains(f.Message, "suppresses no findings") {
		t.Errorf("unexpected finding: %s", f)
	}
	if f.Pos.Line != 3 {
		t.Errorf("stale directive reported at line %d; want 3", f.Pos.Line)
	}
}

// TestStaleDirectiveInactiveAnalyzer: a directive for an analyzer that
// did not run cannot be judged stale — `vislint -analyzers detsource` must
// not condemn floateq annotations it never exercised.
func TestStaleDirectiveInactiveAnalyzer(t *testing.T) {
	src := `package fixture

//lint:allow floateq the analyzer for this is not in the run set
func fine(a, b int) bool { return a == b }
`
	findings := runFixture(t, "luxvis/internal/fixture", src, lint.DetSource{})
	if len(findings) != 0 {
		t.Errorf("findings = %v; want none", findings)
	}
}

// TestStaleDirectiveDeselectedAnalyzer is the regression test for the
// flag-aware staleness fix: a named directive whose findings exist —
// but whose analyzer was deselected via -analyzers — must not be reported
// stale, even while a selected analyzer runs over the same file.
func TestStaleDirectiveDeselectedAnalyzer(t *testing.T) {
	src := `package fixture

func eq(a, b float64) bool {
	return a == b //lint:allow floateq exact comparison is intended here
}
`
	// floateq deselected: the directive would suppress a real floateq
	// finding, so judging it stale from a detsource-only run is wrong.
	findings := runFixture(t, "luxvis/internal/fixture", src, lint.DetSource{})
	if len(findings) != 0 {
		t.Errorf("detsource-only run findings = %v; want none", findings)
	}
	// floateq selected: the directive is used, still nothing reported.
	findings = runFixture(t, "luxvis/internal/fixture", src, lint.FloatEq{})
	if len(findings) != 0 {
		t.Errorf("floateq run findings = %v; want none", findings)
	}
}

// TestStaleDirectiveAllPartialRun: an "all" directive can only be
// audited on a full-suite run — on a partial run the findings it
// suppresses may belong to a deselected analyzer, so reporting it stale
// would condemn a live exception.
func TestStaleDirectiveAllPartialRun(t *testing.T) {
	src := `package fixture

func eq(a, b float64) bool {
	return a == b //lint:allow all fixture exception spanning analyzers
}
`
	if findings := runFixture(t, "luxvis/internal/fixture", src, lint.DetSource{}); len(findings) != 0 {
		t.Errorf("partial-run findings = %v; want none (the all-directive covers a deselected analyzer's finding)", findings)
	}
}

// TestStaleDirectiveAllFullRun: on a full-suite run an "all" directive
// that suppresses nothing anywhere is reported stale.
func TestStaleDirectiveAllFullRun(t *testing.T) {
	src := `package fixture

//lint:allow all this suppresses nothing at all
func fine() {}
`
	pkg, err := lint.CheckSource("luxvis/internal/fixture", "fixture.go", src, nil)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	findings := lint.Run([]*lint.Package{pkg}, lint.All())
	if len(findings) != 1 || findings[0].Analyzer != "directive" {
		t.Errorf("findings = %v; want one stale-directive error", findings)
	}
}
