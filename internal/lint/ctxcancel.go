package lint

import (
	"go/ast"
	"go/types"
)

// CtxCancel checks goroutine hygiene in the concurrent packages
// (internal/rt, internal/exp): every `go` statement must either thread
// a context.Context into the goroutine (so it can observe Done and
// stop — rt robots free-run until cancelled) or be a structured,
// bounded fan-out: the goroutine calls (*sync.WaitGroup).Done and the
// launching function calls Wait, so the goroutine cannot outlive its
// launcher. Anything else is a leak under MaxWall aborts: a robot
// goroutine that keeps mutating the world after Run returned is a data
// race by construction.
type CtxCancel struct{}

// Name implements Analyzer.
func (CtxCancel) Name() string { return "ctxcancel" }

// Doc implements Analyzer.
func (CtxCancel) Doc() string {
	return "require goroutines in rt/exp to thread a context or be WaitGroup-joined by their launcher"
}

// ctxScope lists the packages that launch goroutines by design.
var ctxScope = []string{"internal/rt", "internal/exp"}

// Check implements Analyzer.
func (a CtxCancel) Check(p *Package, _ *Module) []Finding {
	if !p.PathHasSuffix(ctxScope...) {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			launcherWaits := callsSyncMethod(p, fd.Body, "Wait")
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				g, ok := n.(*ast.GoStmt)
				if !ok {
					return true
				}
				if referencesContext(p, g.Call) {
					return true
				}
				if launcherWaits && callsSyncMethod(p, g.Call, "Done") {
					return true
				}
				out = append(out, finding(p, a.Name(), g.Go, Error,
					"goroutine has no cancellation path: thread a context.Context (select on Done) or join it with a sync.WaitGroup in %s",
					fd.Name.Name))
				return true
			})
		}
	}
	return out
}

// referencesContext reports whether any expression inside n (the go
// statement's call, including a func literal body) has type
// context.Context.
func referencesContext(p *Package, n ast.Node) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		e, ok := n.(ast.Expr)
		if !ok {
			return true
		}
		if t := p.TypeOf(e); t != nil && isContextType(t) {
			found = true
			return false
		}
		return true
	})
	return found
}

// isContextType reports whether t is context.Context.
func isContextType(t types.Type) bool {
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj.Pkg() != nil && obj.Pkg().Path() == "context" && obj.Name() == "Context"
}

// callsSyncMethod reports whether n contains a call to the named
// package-sync method (Done, Wait, ...).
func callsSyncMethod(p *Package, n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if sel, ok := call.Fun.(*ast.SelectorExpr); ok {
			if isSyncMethod(methodObjOf(p, sel), name) {
				found = true
				return false
			}
		}
		return true
	})
	return found
}
