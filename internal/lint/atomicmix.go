package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// AtomicMix guards the serve/obs metrics discipline: once any access to
// a struct field goes through sync/atomic (atomic.AddInt64(&s.hits, 1)),
// every access must — a plain load or store of the same field elsewhere
// in the package is a data race the race detector only catches when the
// interleaving happens to bite, and on 32-bit targets a torn read even
// without one. The analyzer collects every field that appears as an
// &-operand of a sync/atomic call anywhere in the package, then flags
// each remaining plain use of those fields.
//
// Fields typed as sync/atomic's value types (atomic.Int64 and friends)
// are safe by construction and need no analysis; this check exists for
// the older pattern where an ordinary int64 field is shared through the
// sync/atomic functions.
type AtomicMix struct{}

// Name implements Analyzer.
func (AtomicMix) Name() string { return "atomicmix" }

// Doc implements Analyzer.
func (AtomicMix) Doc() string {
	return "a field accessed through sync/atomic must never be plain-loaded or stored elsewhere"
}

// Check implements Analyzer.
func (a AtomicMix) Check(p *Package, _ *Module) []Finding {
	if !importsPkg(p, "sync/atomic") {
		return nil
	}

	// Pass 1: fields handed to sync/atomic functions as &x.f, and the
	// exact selector nodes so used (those accesses are the sanctioned
	// ones). Remember the first atomic site per field for the message.
	atomicFields := make(map[*types.Var]token.Pos)
	sanctioned := make(map[*ast.SelectorExpr]bool)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fun, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
			if !ok || pkgNameOf(p, fun.X) != "sync/atomic" {
				return true
			}
			for _, arg := range call.Args {
				un, ok := ast.Unparen(arg).(*ast.UnaryExpr)
				if !ok || un.Op != token.AND {
					continue
				}
				sel, ok := ast.Unparen(un.X).(*ast.SelectorExpr)
				if !ok {
					continue
				}
				fv := fieldObjOf(p, sel)
				if fv == nil {
					continue
				}
				sanctioned[sel] = true
				if _, seen := atomicFields[fv]; !seen {
					atomicFields[fv] = call.Pos()
				}
			}
			return true
		})
	}
	if len(atomicFields) == 0 {
		return nil
	}

	// Pass 2: every other selector resolving to one of those fields is a
	// plain (racy) access.
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || sanctioned[sel] {
				return true
			}
			fv := fieldObjOf(p, sel)
			if fv == nil {
				return true
			}
			site, isAtomic := atomicFields[fv]
			if !isAtomic {
				return true
			}
			out = append(out, finding(p, a.Name(), sel.Sel.Pos(), Error,
				"field %s is accessed with sync/atomic at %s but plainly here; mixed access tears — use atomic loads/stores everywhere",
				fv.Name(), p.Fset.Position(site)))
			return true
		})
	}
	sortFindings(out)
	return out
}

// fieldObjOf resolves a selector to the struct field it names, or nil
// when the selector is not a field access.
func fieldObjOf(p *Package, sel *ast.SelectorExpr) *types.Var {
	if s, ok := p.Info.Selections[sel]; ok {
		if s.Kind() != types.FieldVal {
			return nil
		}
		if v, ok := s.Obj().(*types.Var); ok && v.IsField() {
			return v
		}
		return nil
	}
	if v, ok := p.Info.Uses[sel.Sel].(*types.Var); ok && v.IsField() {
		return v
	}
	return nil
}
