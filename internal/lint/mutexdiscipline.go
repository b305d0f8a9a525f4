package lint

import (
	"go/ast"
	"go/types"
	"regexp"
	"strings"
)

// MutexDiscipline guards shared state under real asynchrony: in any
// package that imports sync (internal/rt above all — one goroutine per
// robot over a mutex-guarded world), a struct field declared after a
// sync.Mutex/RWMutex field, or carrying a "guarded by <mu>" comment, is
// considered guarded by that mutex. Every function whose body reads or
// writes a guarded field must also lock a mutex somewhere in the same
// body — or be named with the *Locked suffix, the convention for
// helpers whose callers hold the lock. The check is deliberately
// function-granular: it catches the field access with no locking
// anywhere in sight, which is how unguarded state actually slips in,
// without attempting full lockset analysis.
type MutexDiscipline struct{}

// Name implements Analyzer.
func (MutexDiscipline) Name() string { return "mutexdiscipline" }

// Doc implements Analyzer.
func (MutexDiscipline) Doc() string {
	return "require Lock/Unlock (or a *Locked name) in functions touching mutex-guarded fields"
}

var guardedByRe = regexp.MustCompile(`guarded by (\w+)`)

// guardInfo records one struct's mutex and its guarded field names.
type guardInfo struct {
	mu     string
	fields map[string]bool
}

// Check implements Analyzer.
func (a MutexDiscipline) Check(p *Package, _ *Module) []Finding {
	if !importsPkg(p, "sync") {
		return nil
	}
	guards := collectGuards(p)
	if len(guards) == 0 {
		return nil
	}
	var out []Finding
	for _, f := range p.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || strings.HasSuffix(fd.Name.Name, "Locked") {
				continue
			}
			out = append(out, a.checkFunc(p, fd, guards)...)
		}
	}
	return out
}

// checkFunc reports guarded-field accesses in one function that has no
// lock acquisition anywhere in its body.
func (a MutexDiscipline) checkFunc(p *Package, fd *ast.FuncDecl, guards map[*types.Named]guardInfo) []Finding {
	type access struct {
		sel   *ast.SelectorExpr
		owner *types.Named
		gi    guardInfo
	}
	var accesses []access
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		s, ok := p.Info.Selections[sel]
		if !ok || s.Kind() != types.FieldVal {
			return true
		}
		if named := namedOf(s.Recv()); named != nil && guards[named].fields[sel.Sel.Name] {
			accesses = append(accesses, access{sel: sel, owner: named, gi: guards[named]})
		}
		return true
	})
	if len(accesses) == 0 || locksAnywhere(p, fd) {
		return nil
	}
	var out []Finding
	seen := map[string]bool{}
	for _, acc := range accesses {
		key := acc.owner.Obj().Name() + "." + acc.sel.Sel.Name
		if seen[key] {
			continue // one report per field per function
		}
		seen[key] = true
		out = append(out, finding(p, a.Name(), acc.sel.Sel.Pos(), Error,
			"%s accesses %s.%s (guarded by %s) without locking in this function; hold the mutex or use the *Locked naming convention",
			fd.Name.Name, acc.owner.Obj().Name(), acc.sel.Sel.Name, acc.gi.mu))
	}
	return out
}

// locksAnywhere reports whether any frame of fd — its body, a goroutine
// body, a stored closure — acquires a mutex.
func locksAnywhere(p *Package, fd *ast.FuncDecl) bool {
	for _, frame := range framesOf(fd) {
		for _, c := range frameLocks(p, frame) {
			if c.lock {
				return true
			}
		}
	}
	return false
}

// collectGuards finds the package's mutex-guarded struct fields: every
// field after a mutex field in declaration order, plus fields whose
// comments say "guarded by <mu>".
func collectGuards(p *Package) map[*types.Named]guardInfo {
	guards := make(map[*types.Named]guardInfo)
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return true
			}
			obj, ok := p.Info.Defs[ts.Name].(*types.TypeName)
			if !ok {
				return true
			}
			named, ok := obj.Type().(*types.Named)
			if !ok {
				return true
			}
			gi := guardInfo{fields: map[string]bool{}}
			sawMutex := false
			for _, field := range st.Fields.List {
				names := fieldNames(field)
				if isMutexType(p.TypeOf(field.Type)) {
					if !sawMutex && len(names) > 0 {
						gi.mu = names[0]
					}
					sawMutex = true
					continue
				}
				explicit := guardedByComment(field)
				for _, name := range names {
					if sawMutex || explicit != "" {
						gi.fields[name] = true
						if gi.mu == "" && explicit != "" {
							gi.mu = explicit
						}
					}
				}
			}
			if len(gi.fields) > 0 {
				guards[named] = gi
			}
			return true
		})
	}
	return guards
}

// fieldNames lists a field's names; an embedded mutex is named after
// its type.
func fieldNames(field *ast.Field) []string {
	if len(field.Names) > 0 {
		names := make([]string, len(field.Names))
		for i, n := range field.Names {
			names[i] = n.Name
		}
		return names
	}
	// Embedded field: the name is the bare type name.
	switch t := field.Type.(type) {
	case *ast.Ident:
		return []string{t.Name}
	case *ast.SelectorExpr:
		return []string{t.Sel.Name}
	}
	return nil
}

// guardedByComment returns the mutex name from a "guarded by <mu>"
// field comment, or "".
func guardedByComment(field *ast.Field) string {
	for _, cg := range []*ast.CommentGroup{field.Doc, field.Comment} {
		if cg == nil {
			continue
		}
		if m := guardedByRe.FindStringSubmatch(cg.Text()); m != nil {
			return m[1]
		}
	}
	return ""
}

// isMutexType reports whether t is sync.Mutex, sync.RWMutex or a
// pointer to either.
func isMutexType(t types.Type) bool {
	if t == nil {
		return false
	}
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	s := t.String()
	return s == "sync.Mutex" || s == "sync.RWMutex"
}

// namedOf unwraps pointers down to a *types.Named, or nil.
func namedOf(t types.Type) *types.Named {
	for {
		switch tt := t.(type) {
		case *types.Pointer:
			t = tt.Elem()
		case *types.Named:
			return tt
		default:
			return nil
		}
	}
}

// importsPkg reports whether the package imports path directly.
func importsPkg(p *Package, path string) bool {
	for _, imp := range p.Pkg.Imports() {
		if imp.Path() == path {
			return true
		}
	}
	return false
}
