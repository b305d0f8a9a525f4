package lint_test

import (
	"strings"
	"testing"

	"luxvis/internal/lint"
)

// TestDetSourceDirect carries over the retired nondet analyzer's
// contract: wall-clock reads, global math/rand draws and map iteration
// are flagged in scoped packages; explicit sources and allow-directives
// are not.
func TestDetSourceDirect(t *testing.T) {
	src := `package sim

import (
	"math/rand"
	"sort"
	"time"
)

func clock() time.Time {
	return time.Now() // want
}

func draw() int {
	return rand.Intn(6) // want
}

func seeded(rng *rand.Rand) int {
	_ = rand.New(rand.NewSource(1)) // constructors wrap an explicit source
	return rng.Intn(6)              // method on a threaded *rand.Rand, not the global
}

func iterate(m map[int]string) {
	for k := range m { // want
		_ = k
	}
}

func collectSorted(m map[int]string) []int {
	var keys []int
	//lint:allow detsource this loop only collects keys; order is restored by the sort below
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
`
	findings := runFixture(t, "luxvis/internal/sim", src, lint.DetSource{})
	assertWants(t, src, findings)
}

// TestDetSourceOutOfScope: packages outside the engine/verify/exp set
// may use the wall clock freely.
func TestDetSourceOutOfScope(t *testing.T) {
	src := `package obs

import "time"

func stamp() time.Time { return time.Now() }
`
	findings := runFixture(t, "luxvis/internal/obs", src, lint.DetSource{})
	if len(findings) != 0 {
		t.Errorf("findings = %v; want none outside scope", findings)
	}
}

// TestDetSourceCrossPackage is the analyzer's reason to exist: a scoped
// package calling an unscoped module package whose implementation
// reaches a determinism source is reported at the call site with the
// witness chain — a finding the intra-package engine provably cannot
// see (the source sits in a package detsource does not even scope).
func TestDetSourceCrossPackage(t *testing.T) {
	utilSrc := `package util

import "math/rand"

func jitter() int { return rand.Intn(10) }

func Delay() int { return jitter() }

func Pure(n int) int { return n * 2 }
`
	simSrc := `package sim

import "luxvis/internal/util"

func step() int {
	return util.Delay() // want
}

func scale(n int) int {
	return util.Pure(n)
}
`
	specs := []pkgSpec{
		{"luxvis/internal/util", "util_ds_fix.go", utilSrc},
		{"luxvis/internal/sim", "sim_ds_fix.go", simSrc},
	}
	pkgs := buildModule(t, specs)
	findings := fileFindings(lint.Run(pkgs, []lint.Analyzer{lint.DetSource{}}), "sim_ds_fix.go")
	assertWants(t, simSrc, findings)
	for _, f := range findings {
		if !strings.Contains(f.Message, "util.Delay") || !strings.Contains(f.Message, "jitter") {
			t.Errorf("cross-package finding lacks witness chain (want util.Delay → jitter): %s", f)
		}
	}
	assertIntraSilent(t, specs, lint.DetSource{}, "sim_ds_fix.go")
}

// TestDetSourceAllowStopsTaint: an allow on the source operation is
// proof of harmlessness, so callers across packages are clean without
// re-annotating every call site.
func TestDetSourceAllowStopsTaint(t *testing.T) {
	bdcpSrc := `package bdcp

import "sort"

func Keys(m map[int]string) []int {
	var keys []int
	//lint:allow detsource keys are sorted before use; this loop only collects them
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
`
	simSrc := `package sim

import "luxvis/internal/bdcp"

func use(m map[int]string) []int {
	return bdcp.Keys(m)
}
`
	specs := []pkgSpec{
		{"luxvis/internal/bdcp", "bdcp_ds_fix.go", bdcpSrc},
		{"luxvis/internal/sim", "sim_ds_allow_fix.go", simSrc},
	}
	pkgs := buildModule(t, specs)
	fs := lint.Run(pkgs, []lint.Analyzer{lint.DetSource{}})
	if len(fs) != 0 {
		t.Errorf("findings = %v; want none (allow on the source must stop the taint)", fs)
	}
}
