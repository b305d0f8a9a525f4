package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// ArenaAlias enforces the memory discipline that PR 5's zero-allocation
// visibility kernel turned into a correctness property: the slices
// handed out by geom.Snapshot.Row alias a reusable arena, so a retained
// row silently changes under its holder the moment the arena is
// rewritten — and a corrupted Look snapshot is exactly the failure the
// paper's ASYNC argument cannot survive. The rule mirrors the documented
// kernel contract: an arena row may only be read, in the frame that
// obtained it, before the snapshot is next touched
// (Update/Reset/Row/ComputeAll). It must not be stored in a struct,
// global or composite value, sent on a channel, or written through.
//
// The analyzer runs the engine's per-function dataflow pass to find
// every local that may hold an arena row — including rows laundered
// through assignments, slicing, and module-local wrapper functions
// whose arena-returning summary comes from the cross-package module
// graph (a wrapper in another package is invisible to intra-package
// analysis; the whole-program graph is what makes `rows := helper.Top(s)`
// as loud as `rows := s.Row(0)`).
//
// Approximations, chosen to fail toward silence: staleness is judged in
// source-position order within one frame (a loop that re-reads the row
// after every Update is clean and correct; a loop-carried stale read is
// missed), and a row passed to another function is assumed read-only
// there — escape through callees is the summary pass's job only for
// returns.
type ArenaAlias struct{}

// Name implements Analyzer.
func (ArenaAlias) Name() string { return "arenaalias" }

// Doc implements Analyzer.
func (ArenaAlias) Doc() string {
	return "kernel arena rows (Snapshot.Row) must not be retained, sent, mutated, or read after invalidation"
}

// Check implements Analyzer.
func (a ArenaAlias) Check(p *Package, m *Module) []Finding {
	var out []Finding
	for _, fn := range m.Funcs(p) {
		fd := m.Decl(fn)
		for _, frame := range framesOf(fd) {
			out = append(out, a.checkFrame(p, m, fd.Name.Name, frame)...)
		}
	}
	sortFindings(out)
	return out
}

// checkFrame applies the arena rules to one analysis frame.
func (a ArenaAlias) checkFrame(p *Package, m *Module, name string, frame ast.Node) []Finding {
	st := taintLocals(taintSpec{
		p:          p,
		sourceCall: func(call *ast.CallExpr) bool { return m.arenaSourceCall(p, call) },
	}, frame)
	if len(st.objs) == 0 {
		return nil
	}

	var out []Finding

	// Rule 1-3: stores, sends, and writes. Walked over the whole frame
	// (inline literals included); nested frames run their own pass.
	inspectFrame(frame, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.AssignStmt:
			for i, lhs := range n.Lhs {
				var rhs ast.Expr
				if len(n.Lhs) == len(n.Rhs) {
					rhs = n.Rhs[i]
				} else if len(n.Rhs) == 1 {
					rhs = n.Rhs[0]
				}
				if rhs != nil && st.tainted(rhs) && !isFrameLocalTarget(p, lhs) {
					out = append(out, finding(p, a.Name(), n.Pos(), Error,
						"%s stores an arena-backed visibility row in %s; the kernel reuses the arena, so the stored slice goes stale — copy it (append to a fresh slice) if it must outlive this read",
						name, exprString(lhs)))
				}
				if idx, ok := ast.Unparen(lhs).(*ast.IndexExpr); ok && st.tainted(idx.X) {
					out = append(out, finding(p, a.Name(), n.Pos(), Error,
						"%s writes through an arena-backed visibility row (%s); rows are read-only views into the kernel's arena",
						name, exprString(lhs)))
				}
			}
		case *ast.SendStmt:
			if st.tainted(n.Value) {
				out = append(out, finding(p, a.Name(), n.Arrow, Error,
					"%s sends an arena-backed visibility row on a channel; the receiver races the kernel's arena reuse — send a copy",
					name))
			}
		case *ast.CompositeLit:
			for _, el := range n.Elts {
				v := el
				if kv, ok := el.(*ast.KeyValueExpr); ok {
					v = kv.Value
				}
				if st.tainted(v) {
					out = append(out, finding(p, a.Name(), v.Pos(), Error,
						"%s embeds an arena-backed visibility row in a composite value; the row goes stale when the arena is reused — copy it first",
						name))
				}
			}
		}
		return true
	})

	out = append(out, a.staleReads(p, m, name, frame, st)...)
	return out
}

// isFrameLocalTarget reports whether an assignment target is a plain
// local variable — the only place an arena row may live. Selectors
// (struct fields), index expressions, dereferences and package-level
// variables all let the row outlive the frame or the arena's validity.
func isFrameLocalTarget(p *Package, lhs ast.Expr) bool {
	id, ok := ast.Unparen(lhs).(*ast.Ident)
	if !ok {
		return false
	}
	if id.Name == "_" {
		return true
	}
	obj := p.Info.Defs[id]
	if obj == nil {
		obj = p.Info.Uses[id]
	}
	if obj == nil {
		return false
	}
	// A package-level variable is a global store even when assigned by
	// bare identifier.
	v, ok := obj.(*types.Var)
	return ok && v.Parent() != p.Pkg.Scope()
}

// staleReads flags uses of a tainted row after a snapshot-invalidating
// call in the same frame, in source-position order: between the row's
// defining statement and the use there must be no Update/Reset/Row/
// ComputeAll on a Snapshot and no call to an arena-returning wrapper
// (which performs one of those inside).
func (a ArenaAlias) staleReads(p *Package, m *Module, name string, frame ast.Node, st *taintState) []Finding {
	var invalidators []token.Pos
	inspectFrame(frame, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		// A Snapshot's Update, Reset, Row or ComputeAll may rewrite
		// outstanding rows.
		if m.arenaSourceCall(p, call) ||
			isSnapshotMethod(p.StaticCallee(call), "Update", "Reset", "Row", "ComputeAll") {
			invalidators = append(invalidators, call.Pos())
		}
		return true
	})
	if len(invalidators) == 0 {
		return nil
	}

	var out []Finding
	reported := make(map[types.Object]bool)
	inspectFrame(frame, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return true
		}
		obj := p.Info.Uses[id]
		if obj == nil {
			return true
		}
		def, tainted := st.objs[obj]
		if !tainted || reported[obj] {
			return true
		}
		for _, inv := range invalidators {
			if inv > def && inv < id.Pos() {
				reported[obj] = true
				out = append(out, finding(p, a.Name(), id.Pos(), Error,
					"%s reads arena row %s after the snapshot was touched again (Update/Reset/Row/ComputeAll invalidate outstanding rows); re-read the row or copy it before the next kernel call",
					name, id.Name))
				break
			}
		}
		return true
	})
	return out
}
