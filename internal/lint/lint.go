// Package lint is luxvis's domain-aware static analysis engine: a small,
// stdlib-only (go/parser, go/ast, go/types, go/token) analysis framework
// plus the analyzers that guard the paper's invariants at build time —
// epsilon-safe geometry predicates (floateq), the O(1)-color palette
// discipline (palette), mutex-guarded shared state under asynchrony
// (mutexdiscipline), cancellable goroutines (ctxcancel), the
// no-blocking-under-the-world-lock callback contract (locksafe),
// tear-free atomics discipline (atomicmix), checked hot-writer errors
// (errsink), stable wire-format tags (wireformat), kernel arena-row
// aliasing (arenaalias), context propagation across the serve→sim→rt
// layering (ctxflow), seeded-replay determinism with cross-package
// taint (detsource, which superseded the local-only nondet), and
// goroutine termination, lock-acquisition order and channel ownership
// (goleak, lockorder, chanown).
//
// The engine reasons across function and package boundaries. LoadModule
// type-checks every module package from source into one shared universe,
// reading the standard library from the gc export data the go command
// keeps in its build cache (load.go). Module (module.go) owns the one
// call graph (callgraph.go: every declared function and its static
// calls to other module functions) and computes a FuncSummary for every
// declared function — lock safety, blocking, determinism taint, arena
// returns, JSON-sink parameters, goroutine termination and lock
// acquisitions — bottom-up in dependency order, closing each package's
// facts over its own call chains; a lightweight per-function dataflow
// pass (dataflow.go) tracks values of interest through assignments and
// slicing. Every analyzer receives the package and the module view. Packages are
// analyzed in parallel with deterministic finding order (engine.go), and
// findings render as text, GitHub Actions annotations, or SARIF 2.1.0
// (sarif.go).
//
// The suite is self-hosted: `go run ./cmd/vislint ./...` must exit 0 on
// this repository. Deliberate exceptions are annotated in the source
// with a directive comment on the offending line or the line above:
//
//	//lint:allow <analyzer> <reason>
//
// The reason is mandatory; a directive without one is itself reported —
// and so is a directive that no longer suppresses anything (stale
// directives are errors, which keeps the written-down exception set
// honest). See DESIGN.md, "Static invariants", for the mapping from
// each analyzer to the paper claim it protects.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Severity grades a finding. Error findings fail the build gate;
// Warning findings are reported but do not affect the exit status.
type Severity int

// Severity levels.
const (
	Warning Severity = iota
	Error
)

func (s Severity) String() string {
	if s == Error {
		return "error"
	}
	return "warning"
}

// Finding is one analyzer hit at a source position.
type Finding struct {
	Analyzer string
	Pos      token.Position
	Severity Severity
	Message  string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: [%s] %s",
		f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Severity, f.Analyzer, f.Message)
}

// Package is one type-checked package as the analyzers see it: syntax,
// type information and the import path that scopes path-sensitive rules.
type Package struct {
	// Path is the full import path (e.g. "luxvis/internal/geom").
	Path string
	// Dir is the absolute directory the files were read from.
	Dir string
	// Fset positions every file in Files.
	Fset *token.FileSet
	// Files holds the parsed non-test sources.
	Files []*ast.File
	// Pkg is the type-checked package object.
	Pkg *types.Package
	// Info carries the type-checker's expression/object tables.
	Info *types.Info
}

// TypeOf returns the type of e, or nil when unknown.
func (p *Package) TypeOf(e ast.Expr) types.Type { return p.Info.TypeOf(e) }

// PathHasSuffix reports whether the package's import path ends in one
// of suffixes on a path-segment boundary ("internal/geom" matches
// "luxvis/internal/geom" but not "luxvis/xinternal/geom"). Analyzers
// scope themselves with it.
func (p *Package) PathHasSuffix(suffixes ...string) bool {
	for _, suffix := range suffixes {
		if p.Path == suffix || strings.HasSuffix(p.Path, "/"+suffix) {
			return true
		}
	}
	return false
}

// Analyzer is one named check over a type-checked package.
type Analyzer interface {
	// Name is the identifier used in reports and allow-directives.
	Name() string
	// Doc is a one-line description of what the analyzer enforces.
	Doc() string
	// Check returns the analyzer's findings for one package, before
	// directive filtering, computed with whole-program knowledge of m
	// (which contains p). Run over a single package, m is that one
	// package: calls into other packages are opaque.
	Check(p *Package, m *Module) []Finding
}

// All returns the full luxvis analyzer suite in canonical order.
func All() []Analyzer {
	return []Analyzer{
		FloatEq{},
		PaletteDiscipline{},
		MutexDiscipline{},
		CtxCancel{},
		LockSafe{},
		AtomicMix{},
		ErrSink{},
		WireFormat{},
		ArenaAlias{},
		CtxFlow{},
		DetSource{},
		GoLeak{},
		LockOrder{},
		ChanOwn{},
	}
}

// Names returns the analyzer names of All, in canonical order.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, a := range all {
		out[i] = a.Name()
	}
	return out
}

// ByName resolves a subset of All by analyzer name.
func ByName(names ...string) ([]Analyzer, error) {
	all := All()
	if len(names) == 0 {
		return all, nil
	}
	var out []Analyzer
	for _, n := range names {
		if n == "nondet" {
			return nil, fmt.Errorf("lint: analyzer \"nondet\" was superseded by \"detsource\" (same direct sources, plus cross-package taint)")
		}
		found := false
		for _, a := range all {
			if a.Name() == n {
				out = append(out, a)
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("lint: unknown analyzer %q (known: %s)", n, strings.Join(Names(), ", "))
		}
	}
	return out, nil
}

// Run applies the analyzers to every package, filters findings through
// //lint:allow directives (auditing for stale ones), and returns the
// survivors in canonical order. Malformed directives are themselves
// reported as error findings. Packages are analyzed in parallel, one
// worker per GOMAXPROCS; the output is byte-identical at any count.
func Run(pkgs []*Package, analyzers []Analyzer) []Finding {
	var out []Finding
	for _, r := range lintPackages(pkgs, analyzers) {
		out = append(out, r...)
	}
	sortFindings(out)
	return out
}

// less is the canonical finding order: position (filename, line,
// column), then analyzer, then message. Every path that emits findings
// — sequential or parallel — sorts with this one comparator, so
// engine configuration can never reorder output.
func less(a, b Finding) bool {
	if a.Pos.Filename != b.Pos.Filename {
		return a.Pos.Filename < b.Pos.Filename
	}
	if a.Pos.Line != b.Pos.Line {
		return a.Pos.Line < b.Pos.Line
	}
	if a.Pos.Column != b.Pos.Column {
		return a.Pos.Column < b.Pos.Column
	}
	if a.Analyzer != b.Analyzer {
		return a.Analyzer < b.Analyzer
	}
	return a.Message < b.Message
}

// sortFindings sorts fs into canonical order (see less).
func sortFindings(fs []Finding) {
	sort.Slice(fs, func(i, j int) bool { return less(fs[i], fs[j]) })
}

// HasErrors reports whether any finding has Error severity.
func HasErrors(fs []Finding) bool {
	for _, f := range fs {
		if f.Severity == Error {
			return true
		}
	}
	return false
}

// finding is a small constructor shared by the analyzers.
func finding(p *Package, analyzer string, pos token.Pos, sev Severity, format string, args ...any) Finding {
	return Finding{
		Analyzer: analyzer,
		Pos:      p.Fset.Position(pos),
		Severity: sev,
		Message:  fmt.Sprintf(format, args...),
	}
}

// isFloat reports whether t's underlying type is a floating-point
// basic type (float32/float64 or an untyped float constant).
func isFloat(t types.Type) bool {
	if t == nil {
		return false
	}
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsFloat != 0
}

// pkgNameOf returns the imported package path when e is a bare
// identifier naming an import (e.g. the `rand` in rand.Intn), else "".
func pkgNameOf(p *Package, e ast.Expr) string {
	id, ok := e.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := p.Info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// methodObjOf returns the *types.Func a selector call resolves to, or
// nil. It sees through embedding (x.Lock() on a struct embedding
// sync.Mutex resolves to (*sync.Mutex).Lock).
func methodObjOf(p *Package, sel *ast.SelectorExpr) *types.Func {
	if s, ok := p.Info.Selections[sel]; ok {
		if fn, ok := s.Obj().(*types.Func); ok {
			return fn
		}
		return nil
	}
	if fn, ok := p.Info.Uses[sel.Sel].(*types.Func); ok {
		return fn
	}
	return nil
}

// recvNamed returns the named type of fn's receiver (through a
// pointer), or nil when fn is not a method.
func recvNamed(fn *types.Func) *types.Named {
	if fn == nil {
		return nil
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return nil
	}
	return namedOf(sig.Recv().Type())
}

// isSyncMethod reports whether the call target is package sync's method
// named name (e.g. "Lock", "Done").
func isSyncMethod(fn *types.Func, names ...string) bool {
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return false
	}
	for _, n := range names {
		if fn.Name() == n {
			return true
		}
	}
	return false
}
