package lint_test

import (
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"

	"luxvis/internal/lint"
)

// moduleRoot locates the repository's go.mod from the test's working
// directory.
func moduleRoot(t *testing.T) string {
	t.Helper()
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		t.Fatalf("FindModuleRoot: %v", err)
	}
	return root
}

var (
	moduleOnce sync.Once
	modulePkgs []*lint.Package
	moduleErr  error
)

// loadedModule loads and type-checks the whole repository once per test
// process; the self-lint test and fixtures that import real packages
// (internal/model) share the result.
func loadedModule(t *testing.T) []*lint.Package {
	t.Helper()
	moduleOnce.Do(func() {
		modulePkgs, moduleErr = lint.LoadModule(moduleRoot(t))
	})
	if moduleErr != nil {
		t.Fatalf("LoadModule: %v", moduleErr)
	}
	return modulePkgs
}

// modulePackage returns the loaded package whose import path ends in
// suffix.
func modulePackage(t *testing.T, suffix string) *lint.Package {
	t.Helper()
	for _, p := range loadedModule(t) {
		if p.PathHasSuffix(suffix) {
			return p
		}
	}
	t.Fatalf("module package %q not found", suffix)
	return nil
}

// runFixture type-checks one inline source fixture under the given
// import path and runs a single analyzer over it, directive filtering
// included — the same pipeline cmd/vislint uses.
func runFixture(t *testing.T, path, src string, a lint.Analyzer, deps ...*lint.Package) []lint.Finding {
	t.Helper()
	pkg, err := lint.CheckSource(path, "fixture.go", src, deps)
	if err != nil {
		t.Fatalf("CheckSource(%s): %v", path, err)
	}
	return lint.Run([]*lint.Package{pkg}, []lint.Analyzer{a})
}

var wantCountRe = regexp.MustCompile(`// want(?: x(\d+))?`)

// assertWants checks findings against the fixture's "// want" line
// markers: every marked line must carry exactly the marked number of
// findings (default 1) and unmarked lines none.
func assertWants(t *testing.T, src string, findings []lint.Finding) {
	t.Helper()
	want := map[int]int{}
	for i, line := range strings.Split(src, "\n") {
		if m := wantCountRe.FindStringSubmatch(line); m != nil {
			n := 1
			if m[1] != "" {
				n, _ = strconv.Atoi(m[1])
			}
			want[i+1] = n
		}
	}
	got := map[int]int{}
	for _, f := range findings {
		got[f.Pos.Line]++
	}
	for line, n := range want {
		if got[line] != n {
			t.Errorf("line %d: want %d finding(s), got %d", line, n, got[line])
		}
	}
	for _, f := range findings {
		if want[f.Pos.Line] == 0 {
			t.Errorf("unexpected finding at line %d: %s", f.Pos.Line, f)
		}
	}
}

// findingsOf filters findings by analyzer name.
func findingsOf(fs []lint.Finding, analyzer string) []lint.Finding {
	var out []lint.Finding
	for _, f := range fs {
		if f.Analyzer == analyzer {
			out = append(out, f)
		}
	}
	return out
}

func TestByName(t *testing.T) {
	all, err := lint.ByName()
	if err != nil || len(all) != 13 {
		t.Fatalf("ByName() = %d analyzers, err %v; want 13, nil", len(all), err)
	}
	sub, err := lint.ByName("floateq", "detsource")
	if err != nil || len(sub) != 2 {
		t.Fatalf("ByName(floateq, detsource) = %v, %v", sub, err)
	}
	// An unknown name errors and the message lists every known analyzer,
	// so a typo in -analyzers= is self-correcting at the terminal.
	if _, err := lint.ByName("nosuch"); err == nil {
		t.Fatal("ByName(nosuch) succeeded; want error")
	} else {
		for _, name := range lint.Names() {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("ByName(nosuch) err = %v; does not list known analyzer %q", err, name)
			}
		}
	}
	// The retired name gets a pointer to its successor, not a generic
	// unknown-analyzer error.
	if _, err := lint.ByName("nondet"); err == nil || !strings.Contains(err.Error(), "detsource") {
		t.Fatalf("ByName(nondet) err = %v; want supersession error naming detsource", err)
	}
}

func TestDirectives(t *testing.T) {
	src := `package fixture

func suppressed(a, b float64) bool {
	//lint:allow floateq fixture exception with a reason
	return a == b
}

func trailing(a, b float64) bool {
	return a == b //lint:allow floateq trailing form also suppresses
}

func missingReason(a, b float64) bool {
	//lint:allow floateq
	return a == b // want
}

func unknownAnalyzer(a, b float64) bool {
	//lint:allow nosuch because reasons
	return a == b // want
}
`
	findings := runFixture(t, "luxvis/internal/fixture", src, lint.FloatEq{})
	// The two malformed directives must be reported themselves...
	bad := findingsOf(findings, "directive")
	if len(bad) != 2 {
		t.Fatalf("directive findings = %d (%v); want 2", len(bad), bad)
	}
	// ...and must not suppress the floateq findings on their lines,
	// while the two well-formed directives do.
	assertWants(t, src, findingsOf(findings, "floateq"))
	for _, f := range findings {
		if f.Severity != lint.Error {
			t.Errorf("finding %v has severity %v; want error", f, f.Severity)
		}
	}
}
