package lint

import (
	"go/ast"
	"go/types"
	"reflect"
	"strconv"
	"strings"
)

// WireFormat protects the repo's two byte-level compatibility promises:
// the golden JSONL trace (internal/trace) and the JSON /metrics
// snapshot (internal/serve, internal/obs). Both are diffed byte for
// byte in tests, so the wire names of struct fields are API — and a
// struct marshaled without explicit json tags silently couples the wire
// format to Go field names, where an innocent rename becomes a
// golden-file break discovered two layers away.
//
// Two rules, scoped to the wire-producing packages (internal/serve,
// internal/trace, internal/obs):
//
//  1. A struct that has any json-tagged field has opted into the wire
//     format: every exported field must then carry an explicit json
//     name (`json:"-"` counts — it is an explicit decision).
//  2. A named struct type that flows into a JSON sink — json.Marshal,
//     json.MarshalIndent, (*json.Encoder).Encode, or any package-local
//     wrapper whose interface parameter reaches one of those,
//     discovered transitively over the call graph — must have json
//     tags if it has exported fields.
//
// Rule 2 is what catches the common shape `writeJSON(w, code, v)`: the
// wrapper takes `any`, so nothing at its own Encode call names the
// struct; the analyzer instead propagates sink-ness to the wrapper's
// parameter and checks the static types at every call site.
//
// With the cross-package module graph both halves of rule 2 span
// packages: the wrapper may live in another package (serve calling an
// obs helper whose parameter reaches Encode), and the struct may be
// declared anywhere in the module — a core type marshaled by serve is
// held to the same tag discipline as serve's own, because its wire
// bytes are just as load-bearing.
type WireFormat struct{}

// Name implements Analyzer.
func (WireFormat) Name() string { return "wireformat" }

// Doc implements Analyzer.
func (WireFormat) Doc() string {
	return "structs marshaled by serve/trace/obs must carry explicit stable json tags"
}

// wireScopes are the package-path suffixes that produce wire bytes.
var wireScopes = []string{"internal/serve", "internal/trace", "internal/obs"}

// Check implements Analyzer.
func (a WireFormat) Check(p *Package, m *Module) []Finding {
	if !p.PathHasSuffix(wireScopes...) {
		return nil
	}

	var out []Finding
	out = append(out, a.checkTagCompleteness(p)...)
	out = append(out, a.checkMarshalSinks(p, m)...)
	sortFindings(out)
	return out
}

// checkTagCompleteness enforces rule 1: in a struct with any json tag,
// every exported non-embedded field needs an explicit json name.
func (a WireFormat) checkTagCompleteness(p *Package) []Finding {
	var out []Finding
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
			opted := false
			for _, field := range st.Fields.List {
				if jsonTagName(field) != "" {
					opted = true
					break
				}
			}
			if !opted {
				return true
			}
			for _, field := range st.Fields.List {
				if len(field.Names) == 0 || jsonTagName(field) != "" {
					continue // embedded, or explicitly named
				}
				for _, name := range field.Names {
					if !name.IsExported() {
						continue
					}
					out = append(out, finding(p, a.Name(), name.Pos(), Error,
						"field %s of wire struct %s has no explicit json tag; the wire name must not depend on the Go field name",
						name.Name, ts.Name.Name))
				}
			}
			return true
		})
	}
	return out
}

// jsonTagName extracts the explicit json name from a field tag: the
// first comma-separated element of the json key ("-" counts as
// explicit). Empty means no explicit name.
func jsonTagName(field *ast.Field) string {
	if field.Tag == nil {
		return ""
	}
	raw, err := strconv.Unquote(field.Tag.Value)
	if err != nil {
		return ""
	}
	name, _, _ := strings.Cut(reflect.StructTag(raw).Get("json"), ",")
	return name
}

// checkMarshalSinks enforces rule 2. The sink-parameter fixpoint itself
// lives in the module summary pass (Module.computeSinkParams), where it
// runs bottom-up in dependency order — a wrapper's sink parameter is
// visible here no matter which package declares the wrapper. This pass
// only checks the static type of every value reaching a summarized
// sink against the tag rules; any named struct declared in the module
// qualifies, not just this package's own.
func (a WireFormat) checkMarshalSinks(p *Package, m *Module) []Finding {
	var out []Finding
	for _, fn := range m.Funcs(p) {
		ast.Inspect(m.Decl(fn).Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			for _, argIdx := range m.sinkArgIndices(p, call) {
				if argIdx >= len(call.Args) {
					continue
				}
				arg := call.Args[argIdx]
				named := namedStructOf(p.TypeOf(arg))
				if named == nil || !m.IsModuleStruct(named) {
					continue
				}
				st := named.Underlying().(*types.Struct)
				if structHasJSONTags(st) || !structHasExportedFields(st) {
					continue
				}
				out = append(out, finding(p, a.Name(), arg.Pos(), Error,
					"%s is marshaled as JSON here but declares no json tags; wire structs need explicit stable field names",
					named.Obj().Name()))
			}
			return true
		})
	}
	return out
}

// namedStructOf unwraps pointers and returns t as a named struct type,
// or nil.
func namedStructOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if ptr, ok := t.Underlying().(*types.Pointer); ok {
		t = ptr.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return nil
	}
	if _, ok := named.Underlying().(*types.Struct); !ok {
		return nil
	}
	return named
}

// structHasJSONTags reports whether any field carries a json tag.
func structHasJSONTags(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if name, _, _ := strings.Cut(reflect.StructTag(st.Tag(i)).Get("json"), ","); name != "" {
			return true
		}
	}
	return false
}

// structHasExportedFields reports whether the struct would actually
// marshal anything (at least one exported field).
func structHasExportedFields(st *types.Struct) bool {
	for i := 0; i < st.NumFields(); i++ {
		if st.Field(i).Exported() {
			return true
		}
	}
	return false
}
