package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// This file is the engine's lightweight per-function dataflow pass: a
// forward may-taint fixpoint over one function body that tracks which
// local variables can hold a value of interest — a context derived from
// the caller's ctx parameter, or one built from context.Background
// (both ctxflow) — through assignments, short declarations, tuple
// returns from calls, and slicing. It deliberately stops at what a
// build gate can decide instantly: no heap model, no inter-procedural
// flow of its own (call effects arrive as module-graph summaries via
// the taint's source predicate), and over-approximation only where it
// cannot produce noise.

// taintSpec configures one dataflow pass.
type taintSpec struct {
	p *Package
	// seed marks objects tainted from the start (e.g. a ctx parameter).
	seed map[types.Object]bool
	// sourceCall reports whether a call expression introduces taint by
	// itself (e.g. context.Background()).
	sourceCall func(call *ast.CallExpr) bool
	// propagateCall reports whether a call forwards taint from its
	// arguments to its results (e.g. context.WithTimeout(ctx, d)).
	// argTainted evaluates an argument under the current taint state.
	propagateCall func(call *ast.CallExpr, argTainted func(ast.Expr) bool) bool
}

// taintState is the result of a pass: the set of tainted local objects
// plus, for reporting, the position where each first became tainted.
type taintState struct {
	spec taintSpec
	objs map[types.Object]token.Pos
}

// taintLocals runs the fixpoint over body and returns the final state.
// body is walked in full (closures included): an assignment inside a
// closure still binds the same *types.Var objects, and may-taint is the
// sound direction for every client.
func taintLocals(spec taintSpec, body ast.Node) *taintState {
	st := &taintState{spec: spec, objs: make(map[types.Object]token.Pos)}
	for obj := range spec.seed {
		if obj != nil {
			st.objs[obj] = obj.Pos()
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(body, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.AssignStmt:
				// Taint positions record the statement's End so that a
				// defining call inside the statement (v := s.Row(i)) is
				// ordered before the definition it produces — clients that
				// scan for invalidating calls "after the definition" must
				// not count the definition itself.
				if st.assign(n.Lhs, n.Rhs, n.End()) {
					changed = true
				}
			case *ast.ValueSpec:
				lhs := make([]ast.Expr, len(n.Names))
				for i, name := range n.Names {
					lhs[i] = name
				}
				if len(n.Values) > 0 && st.assign(lhs, n.Values, n.End()) {
					changed = true
				}
			}
			return true
		})
	}
	return st
}

// assign applies one (possibly tuple) assignment to the taint state and
// reports whether anything new became tainted.
func (st *taintState) assign(lhs, rhs []ast.Expr, pos token.Pos) bool {
	changed := false
	mark := func(e ast.Expr) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return
		}
		obj := st.spec.p.Info.Defs[id]
		if obj == nil {
			obj = st.spec.p.Info.Uses[id]
		}
		if obj == nil {
			return
		}
		if _, ok := st.objs[obj]; !ok {
			st.objs[obj] = pos
			changed = true
		}
	}
	switch {
	case len(lhs) == len(rhs):
		for i := range lhs {
			if st.tainted(rhs[i]) {
				mark(lhs[i])
			}
		}
	case len(rhs) == 1:
		// Tuple assignment from one call: if the call's result carries
		// taint, every binding may (conservatively) hold it. Non-value
		// bindings (a cancel func, an ok bool) are marked too, which is
		// harmless: clients only query expressions of their own types.
		if st.tainted(rhs[0]) {
			for _, l := range lhs {
				mark(l)
			}
		}
	}
	return changed
}

// tainted reports whether e may evaluate to a tainted value under the
// current state. Slicing aliases the backing array, so row[1:] of a
// tainted row is tainted; indexing extracts an element and is not.
func (st *taintState) tainted(e ast.Expr) bool {
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj := st.spec.p.Info.Uses[e]
		if obj == nil {
			obj = st.spec.p.Info.Defs[e]
		}
		_, ok := st.objs[obj]
		return obj != nil && ok
	case *ast.CallExpr:
		if st.spec.sourceCall != nil && st.spec.sourceCall(e) {
			return true
		}
		if st.spec.propagateCall != nil && st.spec.propagateCall(e, st.tainted) {
			return true
		}
		return false
	case *ast.SliceExpr:
		return st.tainted(e.X)
	}
	return false
}
