package lint

import (
	"go/ast"
	"go/types"
)

// ErrSink keeps the observability planes honest about I/O failure. The
// telemetry JSONL stream, the Prometheus text exposition and the trace
// writer all sit on hot paths where it is tempting to fire-and-forget a
// Write or Flush; a full disk or a closed pipe then silently truncates
// the byte-for-byte golden trace the differential tests depend on. In
// the writer packages (internal/obs, internal/trace, internal/serve),
// a call to a Write/WriteString/Flush method — or io.WriteString —
// whose result includes an error must not appear as a bare statement or
// an all-blank assignment: check it, or record it in a sticky error the
// way obs.TextWriter does.
//
// strings.Builder and bytes.Buffer receivers are exempt: their Write
// methods are documented to always return a nil error.
type ErrSink struct{}

// Name implements Analyzer.
func (ErrSink) Name() string { return "errsink" }

// Doc implements Analyzer.
func (ErrSink) Doc() string {
	return "telemetry/trace hot writers must not discard Write/Flush errors"
}

// errSinkScopes are the package-path suffixes the analyzer applies to:
// the writer-heavy observability planes.
var errSinkScopes = []string{"internal/obs", "internal/trace", "internal/serve"}

// Check implements Analyzer.
func (a ErrSink) Check(p *Package, _ *Module) []Finding {
	if !p.PathHasSuffix(errSinkScopes...) {
		return nil
	}

	var out []Finding
	report := func(call *ast.CallExpr, name string) {
		out = append(out, finding(p, a.Name(), call.Pos(), Error,
			"%s's error is discarded; hot writers must check it or record a sticky error",
			name))
	}
	check := func(e ast.Expr) {
		call, ok := ast.Unparen(e).(*ast.CallExpr)
		if !ok {
			return
		}
		if name, ok := discardableWriter(p, call); ok {
			report(call, name)
		}
	}
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.ExprStmt:
				check(n.X)
			case *ast.AssignStmt:
				if len(n.Rhs) == 1 && allBlank(n.Lhs) {
					check(n.Rhs[0])
				}
			case *ast.GoStmt:
				if name, ok := discardableWriter(p, n.Call); ok {
					report(n.Call, name)
				}
			case *ast.DeferStmt:
				if name, ok := discardableWriter(p, n.Call); ok {
					report(n.Call, name)
				}
			}
			return true
		})
	}
	sortFindings(out)
	return out
}

// allBlank reports whether every expression is the blank identifier.
func allBlank(exprs []ast.Expr) bool {
	for _, e := range exprs {
		id, ok := e.(*ast.Ident)
		if !ok || id.Name != "_" {
			return false
		}
	}
	return len(exprs) > 0
}

// discardableWriter reports whether call is a writer call whose error
// result must not be dropped, returning a display name for the target.
func discardableWriter(p *Package, call *ast.CallExpr) (string, bool) {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return "", false
	}
	name := sel.Sel.Name
	if pkgNameOf(p, sel.X) == "io" && name == "WriteString" {
		return "io.WriteString", true
	}
	switch name {
	case "Write", "WriteString", "Flush":
	default:
		return "", false
	}
	fn := methodObjOf(p, sel)
	if fn == nil || !returnsError(fn) || alwaysNilErrWriter(fn) {
		return "", false
	}
	return exprString(sel.X) + "." + name, true
}

// returnsError reports whether fn's signature includes an error result.
func returnsError(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return false
	}
	for i := 0; i < sig.Results().Len(); i++ {
		if named, ok := sig.Results().At(i).Type().(*types.Named); ok {
			if named.Obj().Name() == "error" && named.Obj().Pkg() == nil {
				return true
			}
		}
	}
	return false
}

// alwaysNilErrWriter exempts receivers documented to never fail:
// strings.Builder and bytes.Buffer.
func alwaysNilErrWriter(fn *types.Func) bool {
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj().Pkg() == nil {
		return false
	}
	pkg, typ := named.Obj().Pkg().Path(), named.Obj().Name()
	return (pkg == "strings" && typ == "Builder") || (pkg == "bytes" && typ == "Buffer")
}
