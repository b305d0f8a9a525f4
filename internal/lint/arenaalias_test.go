package lint_test

import (
	"testing"

	"luxvis/internal/lint"
)

// TestArenaAliasStoresAndSends: an arena row may live in a local and be
// read; storing it in a struct, global or composite value, sending it,
// or writing through it are violations.
func TestArenaAliasStoresAndSends(t *testing.T) {
	src := `package rt

import "luxvis/internal/geom"

type holder struct{ rows []int32 }

var global []int32

func violations(s *geom.Snapshot, h *holder, ch chan []int32) {
	v := s.Row(0)
	h.rows = v // want
	global = v // want
	ch <- v    // want
	_ = holder{rows: v} // want
	v[0] = 1 // want
}

func reads(s *geom.Snapshot) int32 {
	v := s.Row(0)
	total := int32(0)
	for _, x := range v {
		total += x
	}
	copied := append([]int32(nil), v...)
	_ = copied
	w := v[1:] // aliases the arena, but stays local
	return total + w[0]
}

func viaSlice(s *geom.Snapshot, h *holder) {
	v := s.Row(0)
	h.rows = v[1:] // want
}
`
	specs := []pkgSpec{
		{"luxvis/internal/geom", "geom_aa_fix.go", geomFixture},
		{"luxvis/internal/rt", "rt_aa_fix.go", src},
	}
	runModuleFixture(t, specs, lint.ArenaAlias{}, "rt_aa_fix.go", src)
}

// TestArenaAliasStaleRead: a row read after the snapshot is touched
// again observes the rewritten arena; re-reading after the touch is the
// correct pattern and stays silent.
func TestArenaAliasStaleRead(t *testing.T) {
	src := `package rt

import "luxvis/internal/geom"

func stale(s *geom.Snapshot) int32 {
	v := s.Row(0)
	s.Update(1, geom.Point{})
	return v[0] // want
}

func fresh(s *geom.Snapshot) int32 {
	v := s.Row(0)
	x := v[0]
	s.Update(1, geom.Point{})
	w := s.Row(0)
	return x + w[0]
}
`
	specs := []pkgSpec{
		{"luxvis/internal/geom", "geom_aa_fix.go", geomFixture},
		{"luxvis/internal/rt", "rt_aa_stale_fix.go", src},
	}
	runModuleFixture(t, specs, lint.ArenaAlias{}, "rt_aa_stale_fix.go", src)
}

// TestArenaAliasCrossPackageWrapper: a wrapper in another package whose
// return value aliases the arena (per its summary) taints its callers'
// locals exactly like a direct Row call — and the intra-package engine,
// to which the wrapper is an opaque call, provably misses the store.
func TestArenaAliasCrossPackageWrapper(t *testing.T) {
	helperSrc := `package helper

import "luxvis/internal/geom"

func Top(s *geom.Snapshot) []int32 { return s.Row(0) }

func Copied(s *geom.Snapshot) []int32 {
	return append([]int32(nil), s.Row(0)...)
}
`
	src := `package rt

import (
	"luxvis/internal/geom"
	"luxvis/internal/helper"
)

type holder struct{ rows []int32 }

func storesWrapped(s *geom.Snapshot, h *holder) {
	v := helper.Top(s)
	h.rows = v // want
}

func storesCopy(s *geom.Snapshot, h *holder) {
	v := helper.Copied(s)
	h.rows = v
}
`
	specs := []pkgSpec{
		{"luxvis/internal/geom", "geom_aa_fix.go", geomFixture},
		{"luxvis/internal/helper", "helper_aa_fix.go", helperSrc},
		{"luxvis/internal/rt", "rt_aa_wrap_fix.go", src},
	}
	runModuleFixture(t, specs, lint.ArenaAlias{}, "rt_aa_wrap_fix.go", src)
	assertIntraSilent(t, specs, lint.ArenaAlias{}, "rt_aa_wrap_fix.go")
}
