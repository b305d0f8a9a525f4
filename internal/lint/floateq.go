package lint

import (
	"go/ast"
	"go/token"
)

// FloatEq flags ==, != and switch on floating-point operands anywhere
// outside internal/geom. Collision-freedom and the visibility predicate
// are decided by geometry; bitwise float comparison silently disagrees
// with the epsilon-banded predicates the algorithms are proved against,
// so every float comparison must go through internal/geom's Eps-based
// helpers (Point.Eq, Orient, StrictlyBetween, ...). internal/geom
// itself is exempt: it is where the epsilon discipline is implemented.
type FloatEq struct{}

// Name implements Analyzer.
func (FloatEq) Name() string { return "floateq" }

// Doc implements Analyzer.
func (FloatEq) Doc() string {
	return "forbid ==/!=/switch on floats outside internal/geom's epsilon predicates"
}

// Check implements Analyzer.
func (a FloatEq) Check(p *Package, _ *Module) []Finding {
	if p.PathHasSuffix("internal/geom") {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.BinaryExpr:
				if n.Op != token.EQL && n.Op != token.NEQ {
					return true
				}
				if isFloat(p.TypeOf(n.X)) || isFloat(p.TypeOf(n.Y)) {
					out = append(out, finding(p, a.Name(), n.OpPos, Error,
						"floating-point %s comparison; use the epsilon predicates in internal/geom (geom.Eps) instead", n.Op))
				}
			case *ast.SwitchStmt:
				if n.Tag != nil && isFloat(p.TypeOf(n.Tag)) {
					out = append(out, finding(p, a.Name(), n.Switch, Error,
						"switch on a floating-point value compares bitwise; use epsilon predicates from internal/geom"))
				}
			}
			return true
		})
	}
	return out
}
