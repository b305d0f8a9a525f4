package lint_test

import (
	"testing"

	"luxvis/internal/lint"
)

// pkgSpec is one package of a multi-package test module. Sources are
// checked in slice order, each seeing the previous packages as deps —
// the same shared-universe shape LoadModule produces.
type pkgSpec struct {
	path, file, src string
}

// buildModule type-checks specs into one shared universe.
func buildModule(t *testing.T, specs []pkgSpec) []*lint.Package {
	t.Helper()
	var pkgs []*lint.Package
	for _, s := range specs {
		p, err := lint.CheckSource(s.path, s.file, s.src, pkgs)
		if err != nil {
			t.Fatalf("CheckSource(%s): %v", s.path, err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs
}

// fileFindings filters findings down to one file.
func fileFindings(fs []lint.Finding, file string) []lint.Finding {
	var out []lint.Finding
	for _, f := range fs {
		if f.Pos.Filename == file {
			out = append(out, f)
		}
	}
	return out
}

// runModuleFixture lints a multi-package module with one analyzer and
// asserts the target file's findings against its "// want" markers.
// The way to prove a finding genuinely needs cross-package knowledge is
// to mark it "// want" here and also call assertIntraSilent.
func runModuleFixture(t *testing.T, specs []pkgSpec, a lint.Analyzer, targetFile, targetSrc string) {
	t.Helper()
	pkgs := buildModule(t, specs)
	fs := lint.Run(pkgs, []lint.Analyzer{a})
	assertWants(t, targetSrc, fileFindings(fs, targetFile))
}

// assertIntraSilent asserts that the package holding the target file,
// linted alone (a one-package module, where calls into other packages
// are opaque), reports nothing — the proof that the module fixture's
// findings require the cross-package graph.
func assertIntraSilent(t *testing.T, specs []pkgSpec, a lint.Analyzer, targetFile string) {
	t.Helper()
	for _, p := range buildModule(t, specs) {
		if p.Fset.Position(p.Files[0].Package).Filename != targetFile {
			continue
		}
		if fs := lint.Run([]*lint.Package{p}, []lint.Analyzer{a}); len(fs) != 0 {
			t.Errorf("linted alone, %s reported %d finding(s); want none (finding should require cross-package analysis):\n%s",
				targetFile, len(fs), render(fs))
		}
		return
	}
	t.Fatalf("no fixture package holds %s", targetFile)
}

// TestLockSafeCrossPackage: a blocking operation two packages away is
// still a locksafe violation at the lock-holding call site — and
// invisible to the intra-package engine, which treats the call as
// opaque.
func TestLockSafeCrossPackage(t *testing.T) {
	rtSrc := `package rt

func Drain(ch chan int) int { return <-ch }
`
	serveSrc := `package serve

import (
	"sync"

	"luxvis/internal/rt"
)

type server struct{ mu sync.Mutex }

func (s *server) bad(ch chan int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return rt.Drain(ch) // want
}

func (s *server) good(ch chan int) int {
	s.mu.Lock()
	s.mu.Unlock()
	return rt.Drain(ch)
}
`
	specs := []pkgSpec{
		{"luxvis/internal/rt", "rt_locksafe_fix.go", rtSrc},
		{"luxvis/internal/serve", "serve_locksafe_fix.go", serveSrc},
	}
	runModuleFixture(t, specs, lint.LockSafe{}, "serve_locksafe_fix.go", serveSrc)
	assertIntraSilent(t, specs, lint.LockSafe{}, "serve_locksafe_fix.go")
}

// TestWireFormatCrossPackage: an untagged struct declared in another
// module package, marshaled through a wrapper declared in a third, is
// reported at the serve-layer call site. Linted alone, serve sees
// neither the wrapper's sink parameter nor the struct's package, so
// that run is provably silent.
func TestWireFormatCrossPackage(t *testing.T) {
	coreSrc := `package core

type Stats struct {
	Mean float64
	Max  float64
}
`
	obsSrc := `package obs

import "encoding/json"

func Dump(v any) []byte {
	b, _ := json.Marshal(v)
	return b
}
`
	serveSrc := `package serve

import (
	"luxvis/internal/core"
	"luxvis/internal/obs"
)

func emit(s core.Stats) []byte {
	return obs.Dump(s) // want
}
`
	specs := []pkgSpec{
		{"luxvis/internal/core", "core_wf_fix.go", coreSrc},
		{"luxvis/internal/obs", "obs_wf_fix.go", obsSrc},
		{"luxvis/internal/serve", "serve_wf_fix.go", serveSrc},
	}
	runModuleFixture(t, specs, lint.WireFormat{}, "serve_wf_fix.go", serveSrc)
	assertIntraSilent(t, specs, lint.WireFormat{}, "serve_wf_fix.go")
}
