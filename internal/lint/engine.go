package lint

import (
	"runtime"
	"sort"
	"sync"
)

// Config tunes the engine. The zero value is the default: one worker
// per CPU.
type Config struct {
	// Workers caps concurrent package analysis; <= 0 means GOMAXPROCS.
	// Findings are byte-for-byte identical at any worker count — the
	// canonical sort (see less) is the only ordering authority.
	Workers int
}

func (c Config) workers() int {
	if c.Workers > 0 {
		return c.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// RunConfig applies the analyzers to every package under cfg and
// returns all findings in canonical order.
func RunConfig(pkgs []*Package, analyzers []Analyzer, cfg Config) []Finding {
	var out []Finding
	for _, r := range lintPackages(pkgs, analyzers, cfg) {
		out = append(out, r...)
	}
	sortFindings(out)
	return out
}

// lintPackages builds the module view over pkgs and lints every
// package, returning each package's findings at its index. The
// summaries are computed once, up front and sequentially (they must
// flow dependencies-first anyway); the per-package analyzer runs then
// read them concurrently without coordination. Packages are
// distributed over workers by index striding; each worker writes only
// its own result slots, so the engine needs no locks of its own.
func lintPackages(pkgs []*Package, analyzers []Analyzer, cfg Config) [][]Finding {
	m := NewModule(pkgs)
	results := make([][]Finding, len(pkgs))
	runParallel(len(pkgs), cfg.workers(), func(i int) {
		results[i] = lintPackage(pkgs[i], m, analyzers)
	})
	return results
}

// lintPackage is the per-package unit of work: collect directives, run
// the analyzers through directive filtering, then audit for stale
// directives. The result is in canonical order.
func lintPackage(p *Package, m *Module, analyzers []Analyzer) []Finding {
	dirs, bad := collectDirectives(p)
	out := append([]Finding(nil), bad...)
	active := make(map[string]bool, len(analyzers))
	for _, a := range analyzers {
		active[a.Name()] = true
		for _, f := range a.Check(p, m) {
			if !dirs.allows(f) {
				out = append(out, f)
			}
		}
	}
	out = append(out, dirs.stale(p, active)...)
	sortFindings(out)
	return out
}

// runParallel executes do(0..n-1) across at most `workers` goroutines.
// Work is assigned by striding (worker w takes i = w, w+workers, ...),
// so the mapping from index to worker is deterministic and no shared
// counter — no mutex, no channel — is needed.
func runParallel(n, workers int, do func(int)) {
	if n == 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			do(i)
		}
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < n; i += workers {
				do(i)
			}
		}(w)
	}
	wg.Wait()
}

// PackageFindings is one package's outcome in a LintModule run.
type PackageFindings struct {
	// Path is the package import path.
	Path string
	// Dir is the package's absolute directory.
	Dir string
	// Findings is the package's canonical-order finding list.
	Findings []Finding
}

// LintModule loads the module rooted at root (see LoadModule) and lints
// every package, returning the packages in import-path order.
func LintModule(root string, analyzers []Analyzer) ([]PackageFindings, error) {
	pkgs, err := LoadModule(root)
	if err != nil {
		return nil, err
	}
	out := make([]PackageFindings, len(pkgs))
	for i, fs := range lintPackages(pkgs, analyzers, Config{}) {
		out[i] = PackageFindings{Path: pkgs[i].Path, Dir: pkgs[i].Dir, Findings: fs}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}
