package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The module's call graph: one node per function or method declared
// (with a body) in a module package, one edge per static call in its
// outer frame to another such function, in the same package or across
// a package boundary. It is what lets analyzers reason across function
// boundaries — "does this call, transitively, send on a channel?" —
// instead of staring at one body at a time.
//
// The graph is deliberately static: dynamic dispatch through
// interfaces and function values passed around are not edges. That
// under-approximates reachability (a finding the graph cannot see is a
// finding not reported), which is the right failure mode for a build
// gate; the analyzers that use it document what slips through.

// CallEdge is one static call from a declared function to another
// function declared in the module.
type CallEdge struct {
	Callee *types.Func
	// Pos is the call site inside the caller.
	Pos token.Pos
}

// Funcs returns the functions declared (with a body) in p, in
// declaration order.
func (m *Module) Funcs(p *Package) []*types.Func { return m.funcs[p] }

// Decl returns the AST declaration of fn, or nil when fn is not
// declared (with a body) in the module.
func (m *Module) Decl(fn *types.Func) *ast.FuncDecl {
	if n := m.fns[fn]; n != nil {
		return n.decl
	}
	return nil
}

// Callees returns fn's direct module-local callees, in call-site order.
// Calls inside `go` statements and stored function literals are not
// edges: they do not execute when fn itself is called, which is the
// semantics the propagation pass (and its clients: "does calling this
// block?") needs.
func (m *Module) Callees(fn *types.Func) []CallEdge {
	if n := m.fns[fn]; n != nil {
		return n.calls
	}
	return nil
}

// staticCalls is the one call-site walker: it lists the in-frame calls
// of frame (see inspectFrame) whose static callee satisfies keep, in
// call-site order.
func staticCalls(p *Package, frame ast.Node, keep func(*types.Func) bool) []CallEdge {
	var out []CallEdge
	inspectFrame(frame, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if callee := p.StaticCallee(call); callee != nil && keep(callee) {
			out = append(out, CallEdge{Callee: callee, Pos: call.Pos()})
		}
		return true
	})
	return out
}

// inspectFrame walks root in pre-order like ast.Inspect, but treats
// `go` statements and function literals that are not invoked in place
// as frame boundaries: their bodies run on another goroutine or at
// another time, so what happens inside them is a different frame's
// business (see framesOf).
func inspectFrame(root ast.Node, f func(ast.Node) bool) {
	inline := make(map[*ast.FuncLit]bool)
	ast.Inspect(root, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			return false
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok {
				inline[fl] = true // immediately invoked (or deferred): same frame
			}
		case *ast.FuncLit:
			if !inline[n] {
				return false
			}
		}
		return f(n)
	})
}

// framesOf enumerates the analysis frames of one declaration: its outer
// body, plus the body of every function literal that is not invoked in
// place — goroutine bodies, stored callbacks, handler closures. Each
// frame holds (and must be checked against) its own lock discipline.
func framesOf(fd *ast.FuncDecl) []ast.Node {
	frames := []ast.Node{fd.Body}
	inline := make(map[*ast.FuncLit]bool)
	goCalls := make(map[*ast.CallExpr]bool)
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.GoStmt:
			goCalls[n.Call] = true
		case *ast.CallExpr:
			if fl, ok := ast.Unparen(n.Fun).(*ast.FuncLit); ok && !goCalls[n] {
				inline[fl] = true
			}
		}
		return true
	})
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FuncLit); ok && !inline[fl] {
			frames = append(frames, fl.Body)
		}
		return true
	})
	return frames
}

// Reach is the answer to "can fn, transitively, perform the operation a
// direct-op map describes?" — the call-graph propagation primitive the
// concurrency analyzers are built on.
type Reach struct {
	// Desc describes the reached operation.
	Desc string
	// Pos is the operation's own position (inside the function where it
	// physically occurs), or the call site that crosses into another
	// package on the way to it.
	Pos token.Pos
	// Via is the call chain from the queried function down to the
	// operation's function, as function names; empty for a direct hit.
	Via []string
}

// Chain renders the call chain for a finding message ("a → b → c"), or
// "" for a direct hit.
func (r *Reach) Chain() string {
	if len(r.Via) == 0 {
		return ""
	}
	return strings.Join(r.Via, " → ")
}

// through is the one fold of a callee's fact into a caller: the same
// operation, reached at pos by calling callee from package p, with
// callee prepended to the witness chain.
func (r *Reach) through(p *Package, callee *types.Func, pos token.Pos) Reach {
	return Reach{Desc: r.Desc, Pos: pos, Via: append([]string{crossName(p, callee)}, r.Via...)}
}

// last returns the function at the end of a non-empty witness chain:
// the one whose body performs the operation.
func (r *Reach) last() string { return r.Via[len(r.Via)-1] }

// mergeReach records r in *dst if *dst is empty or r is earlier in
// source order: a function's witness is its earliest direct operation
// or cross-package call site.
func mergeReach(dst **Reach, r Reach) {
	if *dst != nil && (*dst).Pos <= r.Pos {
		return
	}
	*dst = &r
}

// Propagate computes, for every function declared in p, whether it can
// reach one of the direct operations — in its own body or through any
// chain of package-local calls — and with what witness. direct maps
// functions to their own first in-body operation (a fact folded in from
// another package's summary counts as direct). The result maps every
// function that reaches an operation to a Reach; functions that cannot
// are absent. Cycles (recursion) are handled; the witness chain is the
// first one found in deterministic declaration/call order.
func (m *Module) Propagate(p *Package, direct map[*types.Func]Reach) map[*types.Func]*Reach {
	const (
		unvisited = iota
		visiting
		done
	)
	funcs := m.funcs[p]
	state := make(map[*types.Func]int, len(funcs))
	memo := make(map[*types.Func]*Reach, len(funcs))
	var visit func(fn *types.Func) *Reach
	visit = func(fn *types.Func) *Reach {
		switch state[fn] {
		case done:
			return memo[fn]
		case visiting:
			return nil // recursion back-edge: resolved by the entry frame
		}
		state[fn] = visiting
		if d, ok := direct[fn]; ok {
			memo[fn] = &d
		} else {
			for _, e := range m.fns[fn].calls {
				if m.fns[e.Callee].pkg != p {
					continue // cross-package facts arrive through direct
				}
				if r := visit(e.Callee); r != nil {
					w := r.through(p, e.Callee, r.Pos)
					memo[fn] = &w
					break
				}
			}
		}
		state[fn] = done
		return memo[fn]
	}
	for _, fn := range funcs {
		visit(fn)
	}
	return memo
}

// StaticCallee resolves a call expression to the *types.Func it
// statically invokes — a package-level function, a method (through
// embedding), or a qualified identifier — or nil for dynamic calls
// (function values, interface methods, conversions, builtins).
func (p *Package) StaticCallee(call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		if fn, ok := p.Info.Uses[fun].(*types.Func); ok {
			return fn
		}
	case *ast.SelectorExpr:
		if sel, ok := p.Info.Selections[fun]; ok {
			// A method expression or value is a value, not a call edge;
			// only method calls resolve here.
			if sel.Kind() == types.MethodVal {
				if fn, ok := sel.Obj().(*types.Func); ok {
					return fn
				}
			}
			return nil
		}
		if fn, ok := p.Info.Uses[fun.Sel].(*types.Func); ok {
			return fn
		}
	}
	return nil
}

// exprString renders a (small) expression for finding messages: mutex
// receivers, field owners. It handles the selector/identifier shapes
// that occur in lock calls and falls back to a positional placeholder.
func exprString(e ast.Expr) string {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		return e.Name
	case *ast.SelectorExpr:
		return exprString(e.X) + "." + e.Sel.Name
	case *ast.IndexExpr:
		return exprString(e.X) + "[...]"
	case *ast.CallExpr:
		return exprString(e.Fun) + "(...)"
	case *ast.StarExpr:
		return "*" + exprString(e.X)
	}
	return "<expr>"
}
