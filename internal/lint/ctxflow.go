package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces context propagation through the serve → sim → rt
// layering: inside a function that receives a context.Context, every
// module-local call that can block (per the cross-package summaries)
// must be cancellable through that ctx. Two ways to break the chain are
// flagged:
//
//   - the callee takes a ctx parameter but the caller passes
//     context.Background() or context.TODO() (directly, or laundered
//     through a local variable or a context.With* wrapper) while the
//     real ctx is in scope — cancellation is silently dropped at that
//     call site;
//   - the callee lives in another package, blocks, and has no ctx
//     parameter at all — cancellation cannot cross the call, which is
//     how a served request ends up pinning a simulation run nobody can
//     stop.
//
// Whether a callee blocks is a whole-program fact: sim.Run blocks
// because, two packages down, rt waits on robot goroutines. The
// intra-package engine of PR 4 could not see that; the module graph's
// Blocks summaries (observer callbacks excluded — invoking a callback
// is a locksafe concern, not a cancellation one) are what make the
// serve-layer call site answerable.
//
// Arguments the analyzer cannot classify — a ctx stored in a struct
// field, one produced by an unsummarized helper — are skipped, not
// flagged: the gate only reports drops it can prove. Intra-package
// blocking callees without a ctx parameter are also left alone; within
// one package the caller's own select/WaitGroup structure is the
// cancellation story, and ctxcancel audits the goroutine side of it.
type CtxFlow struct{}

// Name implements Analyzer.
func (CtxFlow) Name() string { return "ctxflow" }

// Doc implements Analyzer.
func (CtxFlow) Doc() string {
	return "a received context.Context must reach every blocking module call; no Background/TODO laundering, no ctx-less blocking exports"
}

// ctxFlowScope lists the packages where the serve→sim→rt cancellation
// chain must hold.
var ctxFlowScope = []string{
	"internal/serve", "internal/sim", "internal/rt", "internal/exp",
}

// Check implements Analyzer.
func (a CtxFlow) Check(p *Package, m *Module) []Finding {
	if !p.PathHasSuffix(ctxFlowScope...) {
		return nil
	}

	var out []Finding
	for _, fn := range m.Funcs(p) {
		s := m.Summary(fn)
		if s == nil || s.CtxParam < 0 {
			continue // no ctx received: nothing to thread
		}
		out = append(out, a.checkFunc(p, m, fn.Name(), m.Decl(fn))...)
	}
	sortFindings(out)
	return out
}

// checkFunc audits one ctx-receiving declaration. The taint passes run
// over the whole body — a closure capturing ctx still holds the real
// ctx — and so does the call walk: a blocking call inside a launched
// goroutine needs cancellation at least as much as one on the spot.
func (a CtxFlow) checkFunc(p *Package, m *Module, name string, fd *ast.FuncDecl) []Finding {
	// ctx holds everything derived from the ctx parameter(s);
	// bg everything provably rooted in context.Background()/TODO().
	// Both flow through context.With* (except WithoutCancel, which
	// detaches cancellation and therefore never launders bg into ctx).
	seed := ctxParamObjects(p, fd)
	derive := func(call *ast.CallExpr, argTainted func(ast.Expr) bool) bool {
		if !isContextCall(p, call, func(n string) bool {
			return strings.HasPrefix(n, "With") && n != "WithoutCancel"
		}) {
			return false
		}
		for _, arg := range call.Args {
			if argTainted(arg) {
				return true
			}
		}
		return false
	}
	ctx := taintLocals(taintSpec{p: p, seed: seed, propagateCall: derive}, fd.Body)
	bg := taintLocals(taintSpec{
		p: p,
		sourceCall: func(call *ast.CallExpr) bool {
			return isContextCall(p, call, func(n string) bool {
				return n == "Background" || n == "TODO"
			})
		},
		propagateCall: derive,
	}, fd.Body)

	var out []Finding
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		callee := p.StaticCallee(call)
		s := m.Summary(callee)
		if s == nil || s.Blocks == nil || callee == p.Info.Defs[fd.Name] {
			return true
		}
		blocks := s.Blocks.Desc
		if via := s.Blocks.Chain(); via != "" {
			blocks += " via " + via
		}
		switch {
		case s.CtxParam >= 0 && s.CtxParam < len(call.Args):
			arg := call.Args[s.CtxParam]
			if ctx.tainted(arg) {
				return true // the received ctx (or a child) flows in: chained
			}
			if bg.tainted(arg) {
				out = append(out, finding(p, a.Name(), arg.Pos(), Error,
					"%s has a ctx in scope but hands %s a fresh root context; %s %s, so cancelling the caller would never reach it — pass ctx (or a context derived from it)",
					name, crossName(p, callee), crossName(p, callee), blocks))
			}
			// Anything else (a struct-held ctx, an unsummarized helper's
			// result) is out of proof range: stay silent.
		case s.CtxParam < 0 && m.Owner(callee) != p:
			out = append(out, finding(p, a.Name(), call.Pos(), Error,
				"%s calls %s, which %s but accepts no context.Context; %s's ctx cannot cancel work behind a package boundary — thread a ctx parameter through %s",
				name, crossName(p, callee), blocks, name, crossName(p, callee)))
		}
		return true
	})
	return out
}

// ctxParamObjects collects the declared objects of fd's context.Context
// parameters as a taint seed.
func ctxParamObjects(p *Package, fd *ast.FuncDecl) map[types.Object]bool {
	seed := make(map[types.Object]bool)
	if fd.Type.Params == nil {
		return seed
	}
	for _, field := range fd.Type.Params.List {
		if !isContextType(p.TypeOf(field.Type)) {
			continue
		}
		for _, name := range field.Names {
			if obj := p.Info.Defs[name]; obj != nil {
				seed[obj] = true
			}
		}
	}
	return seed
}

// isContextCall reports whether call invokes a package-level function of
// package context whose name satisfies match.
func isContextCall(p *Package, call *ast.CallExpr, match func(string) bool) bool {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return false
	}
	return pkgNameOf(p, sel.X) == "context" && match(sel.Sel.Name)
}
