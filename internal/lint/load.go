package lint

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// LoadModule discovers, parses and type-checks every non-test package
// under the module rooted at root (the directory containing go.mod),
// returning packages in dependency order. It is a deliberately small,
// offline substitute for golang.org/x/tools/go/packages: module
// packages are type-checked from the tree being linted, so an error in
// them is reported by go/types against the package, and every other
// import (the standard library) is read from the gc export data the go
// command keeps in its build cache — one `go list -export` call per
// load, no network and no external dependencies.
func LoadModule(root string) ([]*Package, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	dirs, err := packageDirs(root)
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	parsed := make(map[string]*rawPkg, len(dirs))
	var paths []string
	stdSet := map[string]bool{}
	for _, dir := range dirs {
		rp, err := parseDir(fset, root, modPath, dir)
		if err != nil {
			return nil, err
		}
		if rp == nil {
			continue // no non-test Go files
		}
		parsed[rp.path] = rp
		paths = append(paths, rp.path)
		for _, imp := range rp.imports {
			if !inModule(modPath, imp) {
				stdSet[imp] = true
			}
		}
	}
	sort.Strings(paths)

	order, err := topoSort(parsed, paths, modPath)
	if err != nil {
		return nil, err
	}

	std := make([]string, 0, len(stdSet))
	for imp := range stdSet {
		std = append(std, imp)
	}
	sort.Strings(std)
	exports := &exportFiles{dir: root, files: map[string]string{}}
	if err := exports.add(std); err != nil {
		return nil, err
	}
	imp := &moduleImporter{
		std:  stdImporter(fset, exports),
		pkgs: make(map[string]*types.Package, len(order)),
	}
	out := make([]*Package, 0, len(order))
	for _, path := range order {
		pkg, err := typeCheck(fset, parsed[path], imp)
		if err != nil {
			return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
		}
		imp.pkgs[path] = pkg.Pkg
		out = append(out, pkg)
	}
	return out, nil
}

// FindModuleRoot ascends from dir to the nearest directory containing
// go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module declaration from a go.mod file.
func modulePath(gomod string) (string, error) {
	data, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("lint: no module directive in %s", gomod)
}

// packageDirs lists every directory under root that may hold a package:
// hidden directories, testdata and nested modules are skipped.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root {
			if strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata" {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir // nested module
			}
		}
		dirs = append(dirs, path)
		return nil
	})
	return dirs, err
}

// rawPkg is a parsed-but-unchecked package.
type rawPkg struct {
	path    string
	dir     string
	files   []*ast.File
	imports []string
}

// parseDir parses the non-test Go files of one directory, or returns
// nil when the directory holds none.
func parseDir(fset *token.FileSet, root, modPath, dir string) (*rawPkg, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	seen := map[string]bool{}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
		for _, imp := range f.Imports {
			seen[strings.Trim(imp.Path.Value, `"`)] = true
		}
	}
	if len(files) == 0 {
		return nil, nil
	}
	rel, err := filepath.Rel(root, dir)
	if err != nil {
		return nil, err
	}
	path := modPath
	if rel != "." {
		path = modPath + "/" + filepath.ToSlash(rel)
	}
	imports := make([]string, 0, len(seen))
	for imp := range seen {
		imports = append(imports, imp)
	}
	sort.Strings(imports)
	return &rawPkg{path: path, dir: dir, files: files, imports: imports}, nil
}

// inModule reports whether the import path imp names a package of the
// module modPath.
func inModule(modPath, imp string) bool {
	return imp == modPath || strings.HasPrefix(imp, modPath+"/")
}

// topoSort orders packages so every module-local import precedes its
// importer.
func topoSort(pkgs map[string]*rawPkg, paths []string, modPath string) ([]string, error) {
	const (
		unvisited = iota
		visiting
		done
	)
	state := make(map[string]int, len(paths))
	var order []string
	var visit func(path string, stack []string) error
	visit = func(path string, stack []string) error {
		switch state[path] {
		case done:
			return nil
		case visiting:
			return fmt.Errorf("lint: import cycle: %s", strings.Join(append(stack, path), " -> "))
		}
		state[path] = visiting
		for _, imp := range pkgs[path].imports {
			if !inModule(modPath, imp) {
				continue // standard library: read from export data
			}
			if _, ok := pkgs[imp]; !ok {
				return fmt.Errorf("lint: %s imports %s, which has no Go files", path, imp)
			}
			if err := visit(imp, append(stack, path)); err != nil {
				return err
			}
		}
		state[path] = done
		order = append(order, path)
		return nil
	}
	for _, p := range paths {
		if err := visit(p, nil); err != nil {
			return nil, err
		}
	}
	return order, nil
}

// exportFiles maps import paths to the gc export data files the go
// command builds for them. It is filled by `go list -export -deps` run
// in dir: up front for a known import set, or on a lookup miss. It is
// not safe for concurrent use.
type exportFiles struct {
	dir   string // "" = the current directory
	files map[string]string
}

// add runs one `go list -export -deps` over paths and records the
// export file of every package in their dependency closure.
func (e *exportFiles) add(paths []string) error {
	if len(paths) == 0 {
		return nil
	}
	args := append([]string{"list", "-export", "-deps", "-f", "{{.ImportPath}}={{.Export}}", "--"}, paths...)
	cmd := exec.Command("go", args...)
	cmd.Dir = e.dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return fmt.Errorf("lint: go list -export %s: %v\n%s", strings.Join(paths, " "), err, strings.TrimSpace(stderr.String()))
	}
	for _, line := range strings.Split(string(out), "\n") {
		if path, file, ok := strings.Cut(line, "="); ok && file != "" {
			e.files[path] = file
		}
	}
	return nil
}

// lookup opens path's export data for the gc importer.
func (e *exportFiles) lookup(path string) (io.ReadCloser, error) {
	if _, ok := e.files[path]; !ok {
		if err := e.add([]string{path}); err != nil {
			return nil, err
		}
	}
	file, ok := e.files[path]
	if !ok {
		return nil, fmt.Errorf("lint: go list reported no export data for %s", path)
	}
	return os.Open(file)
}

// moduleImporter serves module-local packages from the already-checked
// set and everything else (the standard library) from gc export data.
type moduleImporter struct {
	std  types.Importer
	pkgs map[string]*types.Package
}

// stdImporter is the package's one standard-library importer: gc
// export data located through exports.
func stdImporter(fset *token.FileSet, exports *exportFiles) types.Importer {
	return importer.ForCompiler(fset, "gc", exports.lookup)
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if p, ok := m.pkgs[path]; ok {
		return p, nil
	}
	return m.std.Import(path)
}

// typeCheck runs go/types over one parsed package.
func typeCheck(fset *token.FileSet, rp *rawPkg, imp types.Importer) (*Package, error) {
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Implicits:  make(map[ast.Node]types.Object),
	}
	conf := types.Config{Importer: imp}
	pkg, err := conf.Check(rp.path, fset, rp.files, info)
	if err != nil {
		return nil, err
	}
	return &Package{
		Path:  rp.path,
		Dir:   rp.dir,
		Fset:  fset,
		Files: rp.files,
		Pkg:   pkg,
		Info:  info,
	}, nil
}

// sharedFset and sharedStd back CheckSource: one FileSet and one
// importer shared by every call, so repeated fixture checks (the
// analyzer tests) resolve each standard-library package once per
// process, filling the export-file map lazily as fixtures import new
// packages. Guarded by sharedMu; the importer is not safe for
// concurrent use.
var (
	sharedMu   sync.Mutex
	sharedFset *token.FileSet
	sharedStd  types.Importer
)

// CheckSource parses and type-checks a single in-memory source file as
// a package with the given import path, resolving module-local imports
// from deps. It exists for analyzer tests, which feed inline fixtures
// through the same pipeline the CLI uses.
func CheckSource(path, filename, src string, deps []*Package) (*Package, error) {
	sharedMu.Lock()
	defer sharedMu.Unlock()
	if sharedFset == nil {
		sharedFset = token.NewFileSet()
		sharedStd = stdImporter(sharedFset, &exportFiles{files: map[string]string{}})
	}
	f, err := parser.ParseFile(sharedFset, filename, src, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	imp := &moduleImporter{
		std:  sharedStd,
		pkgs: make(map[string]*types.Package, len(deps)),
	}
	for _, d := range deps {
		imp.pkgs[d.Path] = d.Pkg
	}
	return typeCheck(sharedFset, &rawPkg{path: path, dir: ".", files: []*ast.File{f}}, imp)
}
