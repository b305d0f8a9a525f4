package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// CallGraph is the intra-package static call graph: one node per
// function or method declared in the package, one edge per direct call
// between them. It is what lets analyzers reason across function
// boundaries — "does this call, transitively, send on a channel?" —
// instead of staring at one body at a time.
//
// The graph is deliberately static and local: dynamic dispatch through
// interfaces, function values passed around, and cross-package calls
// are not edges. That under-approximates reachability (a finding the
// graph cannot see is a finding not reported), which is the right
// failure mode for a build gate; the analyzers that use it (locksafe,
// wireformat) document what slips through.
type CallGraph struct {
	p     *Package
	funcs []*types.Func // declaration order
	decls map[*types.Func]*ast.FuncDecl
	edges map[*types.Func][]CallEdge
}

// CallEdge is one direct call from a declared function to another
// function declared in the same package.
type CallEdge struct {
	Callee *types.Func
	// Pos is the first call site of Callee inside the caller.
	Pos token.Pos
}

// NewCallGraph builds the call graph of p. Prefer Package.CallGraph,
// which memoizes.
func NewCallGraph(p *Package) *CallGraph {
	g := &CallGraph{
		p:     p,
		decls: make(map[*types.Func]*ast.FuncDecl),
		edges: make(map[*types.Func][]CallEdge),
	}
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, ok := p.Info.Defs[fd.Name].(*types.Func)
			if !ok {
				continue
			}
			g.funcs = append(g.funcs, obj)
			g.decls[obj] = fd
		}
	}
	for _, fn := range g.funcs {
		g.edges[fn] = g.collectCalls(g.decls[fn])
	}
	return g
}

// collectCalls gathers the package-local callees of one declaration's
// outer frame, in call-site order. Calls inside `go` statements and
// stored function literals are not edges: they do not execute when the
// function itself is called, which is the semantics the propagation
// pass (and its clients: "does calling this block?") needs.
func (g *CallGraph) collectCalls(fd *ast.FuncDecl) []CallEdge {
	return staticCalls(g.p, fd.Body, func(fn *types.Func) bool {
		_, declared := g.decls[fn]
		return declared // not cross-package, and has a body here
	})
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

// Funcs returns the declared functions in declaration order.
func (g *CallGraph) Funcs() []*types.Func { return g.funcs }

// Decl returns the AST declaration of fn, or nil when fn is not
// declared (with a body) in this package.
func (g *CallGraph) Decl(fn *types.Func) *ast.FuncDecl { return g.decls[fn] }

// Callees returns fn's direct package-local callees.
func (g *CallGraph) Callees(fn *types.Func) []CallEdge { return g.edges[fn] }

// Reach is the answer to "can fn, transitively, perform the operation a
// direct-op map describes?" — the call-graph propagation primitive the
// concurrency analyzers are built on.
type Reach struct {
	// Desc describes the reached operation.
	Desc string
	// Pos is the operation's own position (inside the function where it
	// physically occurs).
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

// Propagate computes, for every declared function, whether it can reach
// one of the direct operations — in its own body or through any chain
// of package-local calls — and with what witness. direct maps functions
// to their own first in-body operation. The result maps every function
// that reaches an operation to a Reach; functions that cannot are
// absent. Cycles (recursion) are handled; the witness chain is the
// first one found in deterministic declaration/call order.
func (g *CallGraph) Propagate(direct map[*types.Func]Reach) map[*types.Func]*Reach {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[*types.Func]int, len(g.funcs))
	memo := make(map[*types.Func]*Reach, len(g.funcs))
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
			// A direct fact may already carry a chain (a cross-package
			// call summarized by the module graph); preserve it.
			memo[fn] = &Reach{Desc: d.Desc, Pos: d.Pos, Via: d.Via}
			state[fn] = done
			return memo[fn]
		}
		for _, e := range g.edges[fn] {
			if r := visit(e.Callee); r != nil {
				memo[fn] = &Reach{
					Desc: r.Desc,
					Pos:  r.Pos,
					Via:  append([]string{e.Callee.Name()}, r.Via...),
				}
				break
			}
		}
		state[fn] = done
		return memo[fn]
	}
	for _, fn := range g.funcs {
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

// CallGraphOf memoizes NewCallGraph per package, so the analyzers that
// need the graph (locksafe, wireformat) build it once even when they
// run in the same engine pass.
func (p *Package) CallGraph() *CallGraph {
	p.cgOnce.Do(func() { p.cg = NewCallGraph(p) })
	return p.cg
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
