package lint

import (
	"go/ast"
	"go/constant"
	"go/types"
	"strings"
)

// PaletteDiscipline enforces the paper's O(1)-colors claim statically:
// outside internal/model, robot light colors may only be named by the
// declared palette constants (model.Off, model.Corner, ...). Flagged
// are (a) conversions to model.Color — minting a color from an integer
// bypasses the declared palette, and the engine's runtime palette check
// would only catch it when that code path happens to run — and (b)
// untyped numeric literals used at model.Color type ("magic colors"),
// whether or not the value happens to be in palette range.
type PaletteDiscipline struct{}

// Name implements Analyzer.
func (PaletteDiscipline) Name() string { return "palette" }

// Doc implements Analyzer.
func (PaletteDiscipline) Doc() string {
	return "forbid model.Color conversions and numeric color literals outside internal/model"
}

// Check implements Analyzer.
func (a PaletteDiscipline) Check(p *Package, _ *Module) []Finding {
	if p.PathHasSuffix("internal/model") {
		return nil
	}
	colorType, names := paletteOf(p)
	if colorType == nil {
		return nil // package does not import the model
	}
	var out []Finding
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				tv, ok := p.Info.Types[n.Fun]
				if ok && tv.IsType() && types.Identical(tv.Type, colorType) {
					out = append(out, finding(p, a.Name(), n.Pos(), Error,
						"conversion to model.Color mints a color outside the declared palette; use the named constants (%s)",
						paletteHint(names)))
				}
			case *ast.BasicLit:
				t := p.TypeOf(n)
				if t == nil || !types.Identical(t, colorType) {
					return true
				}
				tv := p.Info.Types[n]
				if name, ok := names[constKey(tv.Value)]; ok {
					out = append(out, finding(p, a.Name(), n.Pos(), Error,
						"magic color literal %s; write model.%s", n.Value, name))
				} else {
					out = append(out, finding(p, a.Name(), n.Pos(), Error,
						"color literal %s is not in the declared palette", n.Value))
				}
			}
			return true
		})
	}
	return out
}

// paletteOf locates the model package's Color type among p's imports
// (directly or transitively) and collects the named palette constants.
func paletteOf(p *Package) (types.Type, map[uint64]string) {
	model := findImport(p.Pkg, "internal/model", map[*types.Package]bool{})
	if model == nil {
		return nil, nil
	}
	obj, ok := model.Scope().Lookup("Color").(*types.TypeName)
	if !ok {
		return nil, nil
	}
	colorType := obj.Type()
	names := make(map[uint64]string)
	for _, name := range model.Scope().Names() {
		c, ok := model.Scope().Lookup(name).(*types.Const)
		if !ok || !types.Identical(c.Type(), colorType) {
			continue
		}
		names[constKey(c.Val())] = name
	}
	return colorType, names
}

// findImport searches the import graph of pkg for a package whose path
// ends in suffix.
func findImport(pkg *types.Package, suffix string, seen map[*types.Package]bool) *types.Package {
	for _, imp := range pkg.Imports() {
		if seen[imp] {
			continue
		}
		seen[imp] = true
		if imp.Path() == suffix || strings.HasSuffix(imp.Path(), "/"+suffix) {
			return imp
		}
		if found := findImport(imp, suffix, seen); found != nil {
			return found
		}
	}
	return nil
}

// constKey maps a constant value to a comparable palette key.
func constKey(v constant.Value) uint64 {
	if v == nil {
		return ^uint64(0)
	}
	u, ok := constant.Uint64Val(constant.ToInt(v))
	if !ok {
		return ^uint64(0)
	}
	return u
}

// paletteHint renders a short sample of palette constant names.
func paletteHint(names map[uint64]string) string {
	var sample []string
	for i := uint64(0); i < 3; i++ {
		if n, ok := names[i]; ok {
			sample = append(sample, "model."+n)
		}
	}
	if len(sample) == 0 {
		return "see internal/model"
	}
	return strings.Join(sample, ", ") + ", ..."
}
