package lint_test

import (
	"testing"

	"luxvis/internal/lint"
)

// rtCtxFixture declares two blocking functions in another package: one
// threading a ctx, one not. Whether they block at all is a fact only
// the module summaries know.
const rtCtxFixture = `package rt

import "context"

func Wait(ch chan int) int { return <-ch }

func WaitCtx(ctx context.Context, ch chan int) int {
	select {
	case v := <-ch:
		return v
	case <-ctx.Done():
		return 0
	}
}

func Pure(n int) int { return n * 2 }
`

// TestCtxFlowBackgroundDrop: passing a fresh root context to a blocking
// ctx-aware callee while the caller's ctx is in scope severs the
// cancellation chain — directly, laundered through a local, or wrapped
// in a derived context.
func TestCtxFlowBackgroundDrop(t *testing.T) {
	src := `package serve

import (
	"context"
	"time"

	"luxvis/internal/rt"
)

func drops(ctx context.Context, ch chan int) int {
	return rt.WaitCtx(context.Background(), ch) // want
}

func launders(ctx context.Context, ch chan int) int {
	bg := context.TODO()
	c, cancel := context.WithTimeout(bg, time.Second)
	defer cancel()
	return rt.WaitCtx(c, ch) // want
}

func chains(ctx context.Context, ch chan int) int {
	c, cancel := context.WithTimeout(ctx, time.Second)
	defer cancel()
	return rt.WaitCtx(c, ch)
}

func direct(ctx context.Context, ch chan int) int {
	return rt.WaitCtx(ctx, ch)
}

func nonBlocking(ctx context.Context, n int) int {
	return rt.Pure(n)
}
`
	specs := []pkgSpec{
		{"luxvis/internal/rt", "rt_cf_fix.go", rtCtxFixture},
		{"luxvis/internal/serve", "serve_cf_fix.go", src},
	}
	runModuleFixture(t, specs, lint.CtxFlow{}, "serve_cf_fix.go", src)
	assertIntraSilent(t, specs, lint.CtxFlow{}, "serve_cf_fix.go")
}

// TestCtxFlowMissingParam: a cross-package blocking callee with no ctx
// parameter is a hole cancellation cannot cross. A caller without a ctx
// of its own has nothing to thread and is left alone.
func TestCtxFlowMissingParam(t *testing.T) {
	src := `package serve

import (
	"context"

	"luxvis/internal/rt"
)

func holeInChain(ctx context.Context, ch chan int) int {
	return rt.Wait(ch) // want
}

func noCtxReceived(ch chan int) int {
	return rt.Wait(ch)
}
`
	specs := []pkgSpec{
		{"luxvis/internal/rt", "rt_cf_fix.go", rtCtxFixture},
		{"luxvis/internal/serve", "serve_cf_hole_fix.go", src},
	}
	runModuleFixture(t, specs, lint.CtxFlow{}, "serve_cf_hole_fix.go", src)
	assertIntraSilent(t, specs, lint.CtxFlow{}, "serve_cf_hole_fix.go")
}

// TestCtxFlowOutOfScope: the chain is only enforced in the layered
// packages; a utility package passing Background to a blocking callee
// is not ctxflow's business.
func TestCtxFlowOutOfScope(t *testing.T) {
	src := `package util

import (
	"context"

	"luxvis/internal/rt"
)

func fireAndForget(ctx context.Context, ch chan int) int {
	return rt.WaitCtx(context.Background(), ch)
}
`
	specs := []pkgSpec{
		{"luxvis/internal/rt", "rt_cf_fix.go", rtCtxFixture},
		{"luxvis/internal/util", "util_cf_fix.go", src},
	}
	pkgs := buildModule(t, specs)
	fs := fileFindings(lint.Run(pkgs, []lint.Analyzer{lint.CtxFlow{}}), "util_cf_fix.go")
	if len(fs) != 0 {
		t.Errorf("findings = %v; want none outside scope", fs)
	}
}
