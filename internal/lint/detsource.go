package lint

import (
	"go/ast"
	"go/types"
)

// DetSource enforces seeded-replay determinism in the engine, verify
// and experiment packages (internal/core, internal/bdcp,
// internal/sched, internal/sim, internal/verify, internal/exp): a run
// is reproducible per (algorithm, start, Options) — that is what makes
// traces auditable by internal/verify and every experiment table
// regenerable. It supersedes the local-only nondet analyzer: the same
// three direct sources are flagged — wall-clock reads (time.Now and
// friends), package-level math/rand draws (the global, unseeded source
// instead of the run's threaded *rand.Rand), and map iteration (order
// randomized per run) — and, new with the cross-package engine,
// determinism taint now propagates over the whole-program call graph: a
// scoped package calling into any module-local function that
// transitively reaches one of those sources is reported at the call
// site with the full witness chain, even when the source sits two
// packages away in a package the analyzer does not scope.
//
// A //lint:allow detsource directive on a source operation stops the
// taint, not just the local finding: the annotation is the written-down
// proof that the operation cannot influence replayed behavior (an
// observer-gated timing counter, a collect-then-sort loop), so callers
// of the containing function are clean without re-annotating every call
// site.
type DetSource struct{}

// Name implements Analyzer.
func (DetSource) Name() string { return "detsource" }

// Doc implements Analyzer.
func (DetSource) Doc() string {
	return "forbid wall clock, global math/rand and map iteration in engine/verify/exp packages, with cross-package taint"
}

// detSourceScope lists the packages where seeded determinism is part of
// the contract.
var detSourceScope = []string{
	"internal/core", "internal/bdcp", "internal/sched",
	"internal/sim", "internal/verify", "internal/exp",
}

// wallClockFuncs are the time package functions that read or depend on
// the wall clock or a timer.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "After": true,
	"AfterFunc": true, "Tick": true, "NewTicker": true, "NewTimer": true,
	"Sleep": true,
}

// seededRandFuncs are the math/rand package-level functions that are
// pure constructors (safe: they wrap an explicit source) rather than
// draws from the shared global source.
var seededRandFuncs = map[string]bool{"New": true, "NewSource": true, "NewZipf": true}

// Check implements Analyzer.
func (a DetSource) Check(p *Package, m *Module) []Finding {
	if !p.PathHasSuffix(detSourceScope...) {
		return nil
	}

	var out []Finding

	// Direct sources, everywhere in the package.
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				sel, ok := n.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch pkgNameOf(p, sel.X) {
				case "time":
					if wallClockFuncs[sel.Sel.Name] {
						out = append(out, finding(p, a.Name(), n.Pos(), Error,
							"time.%s reads the wall clock; runs must be deterministic per seed for replay/audit — derive timing from event counts",
							sel.Sel.Name))
					}
				case "math/rand", "math/rand/v2":
					if !seededRandFuncs[sel.Sel.Name] {
						out = append(out, finding(p, a.Name(), n.Pos(), Error,
							"rand.%s draws from the global source; thread the run's seeded *rand.Rand instead",
							sel.Sel.Name))
					}
				}
			case *ast.RangeStmt:
				if t := p.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Map); ok {
						out = append(out, finding(p, a.Name(), n.Range, Error,
							"map iteration order is randomized per run; iterate sorted keys (or an index-keyed slice) so replays are deterministic"))
					}
				}
			}
			return true
		})
	}

	// Cross-package taint: a call into another module package whose
	// summary reaches a determinism source. Intra-package calls are not
	// re-reported — the direct source already carries the finding in
	// this same package.
	g := p.CallGraph()
	for _, fn := range g.Funcs() {
		for _, e := range staticCalls(p, g.Decl(fn).Body, m.crossPackage(p)) {
			s := m.Summary(e.Callee)
			if s == nil || s.Nondet == nil {
				continue
			}
			chain := crossName(p, e.Callee)
			if v := s.Nondet.Chain(); v != "" {
				chain += " → " + v
			}
			out = append(out, finding(p, a.Name(), e.Pos, Error,
				"calling %s taints determinism: %s %s (call chain %s); keep the engine/verify/exp packages replayable per seed",
				crossName(p, e.Callee), lastName(chain), s.Nondet.Desc, chain))
		}
	}
	sortFindings(out)
	return out
}
