package lint

import (
	"go/ast"
	"go/types"
	"slices"
)

// Module is the whole-program view the cross-package analyzers run
// over: every loaded package sharing one type-checked universe, the
// module's call graph (callgraph.go: every declared function and its
// static calls to other module functions, across package boundaries),
// and a summary per declared function. Summaries are computed bottom-up
// in dependency order, so by the time a package is summarized every
// module-local callee below it already has its facts; Propagate then
// closes the facts over the package's own call chains and recursion.
//
// A summary only ever describes a function's transitive
// *dependencies*, so a package's findings are a function of its own
// sources and its module-local dependencies: the same whether its
// dependents are loaded or not.
type Module struct {
	pkgs   []*Package // dependency order
	byPath map[string]*Package
	// funcs lists each package's declared functions in declaration
	// order; fns holds the call graph node of each.
	funcs map[*Package][]*types.Func
	fns   map[*types.Func]*funcNode

	// chans holds each package's own channel send/close sites;
	// closedScope widens a package's view of closes to its transitive
	// module dependencies (never its dependents, so a package's
	// findings do not depend on who imports it).
	chans       map[*Package]*chanFacts
	closedScope map[*Package]map[types.Object][]chanSite
	// lockEdges holds each package's lock-order edges, derived after
	// its Acquires summaries close. Consumed by lockorder.
	lockEdges map[*Package][]lockEdge
}

// funcNode is one declared function (with a body): its package, its
// syntax, its outer-frame calls to module functions in call-site order
// (the call graph's edges), and its summary.
type funcNode struct {
	pkg   *Package
	decl  *ast.FuncDecl
	calls []CallEdge
	sum   FuncSummary
}

// FuncSummary is one declared function's exported analysis facts.
type FuncSummary struct {
	// LockUnsafe is non-nil when calling the function can, directly or
	// transitively, perform an operation forbidden under a mutex
	// (channel ops, blocking selects, waits, sleeps, observer
	// callbacks), with a witness chain. Consumed by locksafe.
	LockUnsafe *Reach
	// Blocks is LockUnsafe minus observer callbacks: the function can
	// genuinely block. Consumed by ctxflow.
	Blocks *Reach
	// Nondet is non-nil when calling the function taints determinism
	// (wall clock, global math/rand, map iteration), with a witness
	// chain. Ops covered by a //lint:allow detsource directive do not
	// taint: the annotation is the written-down proof of harmlessness,
	// and propagating past it would demand an allow at every caller.
	// Consumed by detsource.
	Nondet *Reach
	// ArenaReturn marks functions whose return value aliases a
	// kernel-arena visibility row (geom.Snapshot.Row, or any wrapper
	// returning its result). Consumed by arenaalias.
	ArenaReturn bool
	// SinkParams holds the parameter indices whose values reach a JSON
	// sink (json.Marshal / Encoder.Encode, directly or through further
	// wrappers). Consumed by wireformat.
	SinkParams map[int]bool
	// CtxParam is the index of the first context.Context parameter, or
	// -1. Consumed by ctxflow.
	CtxParam int
	// LeakRisk is non-nil when calling the function can block forever
	// or loop without bound (a channel op with no close in scope, a
	// select without default, a sync.Cond wait, a for{} loop), with a
	// witness chain. Consumed by goleak.
	LeakRisk *Reach
	// TermEvidence is non-nil when the function can reach goroutine
	// termination evidence — a ctx.Done() or module-closed-channel
	// receive, a ctx.Err() poll, a sync.WaitGroup join — with a witness
	// chain. Consumed by goleak: risk without evidence is a leak.
	TermEvidence *Reach
	// Acquires maps canonical named-mutex keys ("pkgpath.Type.field" or
	// "pkgpath.var") the function can, directly or transitively, lock
	// to a witness whose Desc is the mutex's display name. Consumed by
	// lockorder.
	Acquires map[string]*Reach
}

// NewModule indexes and summarizes pkgs. The packages must share one
// type-checked universe (one FileSet, module-local imports resolved to
// each other), which is how LoadModule and CheckSource build them.
func NewModule(pkgs []*Package) *Module {
	m := &Module{
		byPath:      make(map[string]*Package, len(pkgs)),
		funcs:       make(map[*Package][]*types.Func, len(pkgs)),
		fns:         make(map[*types.Func]*funcNode),
		chans:       make(map[*Package]*chanFacts),
		closedScope: make(map[*Package]map[types.Object][]chanSite),
		lockEdges:   make(map[*Package][]lockEdge),
	}
	for _, p := range pkgs {
		m.byPath[p.Path] = p
	}
	m.pkgs = dependencyOrder(pkgs)
	for _, p := range m.pkgs {
		for _, f := range p.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				fn, ok := p.Info.Defs[fd.Name].(*types.Func)
				if !ok {
					continue
				}
				m.funcs[p] = append(m.funcs[p], fn)
				m.fns[fn] = &funcNode{pkg: p, decl: fd, sum: FuncSummary{
					CtxParam:    ctxParamIndex(fn),
					ArenaReturn: isArenaRoot(fn),
				}}
			}
		}
	}
	// Edges once every function is indexed: a call may cross into any
	// module package.
	for _, n := range m.fns {
		n.calls = staticCalls(n.pkg, n.decl.Body, m.declares)
	}
	// Channel facts before summaries: a summary's closed-channel
	// evidence consults the package's dependency-closed scope.
	for _, p := range m.pkgs {
		m.chans[p] = collectChanFacts(p)
	}
	for _, p := range m.pkgs {
		scope := make(map[types.Object][]chanSite)
		for _, d := range m.depClosure(p) {
			for obj, sites := range m.chans[d].closes {
				scope[obj] = append(scope[obj], sites...)
			}
		}
		for obj, sites := range m.chans[p].closes {
			scope[obj] = append(scope[obj], sites...)
		}
		m.closedScope[p] = scope
	}
	for _, p := range m.pkgs {
		m.summarize(p)
	}
	return m
}

// Summary returns fn's summary, or nil when fn is not declared (with a
// body) in the module — a standard-library or bodiless function.
func (m *Module) Summary(fn *types.Func) *FuncSummary {
	if n := m.fns[fn]; n != nil {
		return &n.sum
	}
	return nil
}

// Owner returns the package fn is declared in, or nil.
func (m *Module) Owner(fn *types.Func) *Package {
	if n := m.fns[fn]; n != nil {
		return n.pkg
	}
	return nil
}

// dependencyOrder topologically sorts pkgs so that every module-local
// import precedes its importer. The input order breaks ties, keeping
// the result deterministic for a given call.
func dependencyOrder(pkgs []*Package) []*Package {
	byTypes := make(map[*types.Package]*Package, len(pkgs))
	for _, p := range pkgs {
		byTypes[p.Pkg] = p
	}
	seen := make(map[*Package]bool, len(pkgs))
	out := make([]*Package, 0, len(pkgs))
	var visit func(p *Package)
	visit = func(p *Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		for _, imp := range p.Pkg.Imports() {
			if dep, ok := byTypes[imp]; ok {
				visit(dep)
			}
		}
		out = append(out, p)
	}
	for _, p := range pkgs {
		visit(p)
	}
	return out
}

// reachFacts lists the FuncSummary facts that are one Reach each.
var reachFacts = []func(*FuncSummary) **Reach{
	func(s *FuncSummary) **Reach { return &s.LockUnsafe },
	func(s *FuncSummary) **Reach { return &s.Blocks },
	func(s *FuncSummary) **Reach { return &s.Nondet },
	func(s *FuncSummary) **Reach { return &s.LeakRisk },
	func(s *FuncSummary) **Reach { return &s.TermEvidence },
}

// summarize computes p's function summaries, assuming every module
// dependency of p is already summarized.
func (m *Module) summarize(p *Package) {
	dirs, _ := collectDirectives(p)

	// Pass 1: direct facts per function. "Direct" includes calls into
	// other, already-summarized packages: the callee's summary becomes a
	// fact at the call site with the callee prepended to the witness
	// chain. Propagate then closes everything over local call chains
	// and recursion.
	direct := make(map[*types.Func]*FuncSummary, len(m.funcs[p]))
	acqKeys := make(map[string]bool)
	for _, fn := range m.funcs[p] {
		n := m.fns[fn]
		d := m.directFacts(p, n.decl.Body, dirs)
		for _, e := range n.calls {
			if callee := m.fns[e.Callee]; callee.pkg != p {
				d.foldCall(p, e, &callee.sum, dirs)
			}
		}
		for key := range d.Acquires {
			acqKeys[key] = true
		}
		direct[fn] = d
	}

	// Pass 2: intra-package transitive closure, one propagation per
	// fact and one per named mutex.
	propagate := func(get func(*FuncSummary) *Reach) map[*types.Func]*Reach {
		facts := make(map[*types.Func]Reach)
		for fn, d := range direct {
			if r := get(d); r != nil {
				facts[fn] = *r
			}
		}
		return m.Propagate(p, facts)
	}
	for _, fact := range reachFacts {
		for fn, r := range propagate(func(s *FuncSummary) *Reach { return *fact(s) }) {
			*fact(&m.fns[fn].sum) = r
		}
	}
	for key := range acqKeys {
		for fn, r := range propagate(func(s *FuncSummary) *Reach { return s.Acquires[key] }) {
			s := &m.fns[fn].sum
			if s.Acquires == nil {
				s.Acquires = make(map[string]*Reach)
			}
			s.Acquires[key] = r
		}
	}

	// Pass 3: arena-return fixpoint — does the function return a value
	// the dataflow pass can trace back to an arena row?
	for changed := true; changed; {
		changed = false
		for _, fn := range m.funcs[p] {
			if s := &m.fns[fn].sum; !s.ArenaReturn && m.returnsArena(p, m.fns[fn].decl) {
				s.ArenaReturn = true
				changed = true
			}
		}
	}

	// Pass 4: JSON-sink parameter fixpoint (wireformat's wrapper
	// discovery), lifted over package boundaries: a wrapper's interface
	// parameter that reaches json.Marshal — or another wrapper's sink
	// parameter, in this or any dependency package — is itself a sink.
	m.computeSinkParams(p)

	// Pass 5: lock-order edges. Needs the package's own Acquires (pass
	// 2) and its dependencies' (previous summarize calls); the allowed
	// flag is resolved here, at the owning package, so dependents see
	// which edges a //lint:allow lockorder has stopped.
	m.lockEdges[p] = collectLockEdges(p, m, dirs)
}

// directFacts returns the facts of body's own operations, each the
// earliest of its kind. Lock-unsafe and blocking operations, leak risk,
// termination evidence and named-mutex acquisitions come from the outer
// frame only: a stored closure's or spawned goroutine's operations do
// not run (or hold locks) just because the function is called.
// Determinism taint comes from the whole body — a goroutine launched by
// the call still reads the wall clock — minus the operations a
// //lint:allow detsource covers.
func (m *Module) directFacts(p *Package, body *ast.BlockStmt, dirs *directiveSet) *FuncSummary {
	d := &FuncSummary{}
	ops := classifyBlocking(p, m.closedScope[p], body)
	for _, op := range ops.unsafe {
		mergeReach(&d.LockUnsafe, Reach{Desc: op.desc, Pos: op.pos})
		if !op.observer {
			mergeReach(&d.Blocks, Reach{Desc: op.desc, Pos: op.pos})
		}
	}
	d.LeakRisk, d.TermEvidence = ops.risk, ops.evidence
	for _, op := range nondetOps(p, body) {
		if !dirs.covers(p, op.pos, "detsource") {
			mergeReach(&d.Nondet, Reach{Desc: op.desc(), Pos: op.pos})
		}
	}
	for _, c := range frameLocks(p, body) {
		if c.lock && c.key != "" {
			d.mergeAcquire(c.key, Reach{Desc: c.disp, Pos: c.pos})
		}
	}
	return d
}

// foldCall merges into d the facts a call to e.Callee, summarized as s,
// contributes at the call site (see Reach.through and mergeReach). A
// //lint:allow detsource on the call site stops the Nondet fact there.
func (d *FuncSummary) foldCall(p *Package, e CallEdge, s *FuncSummary, dirs *directiveSet) {
	for _, fact := range reachFacts {
		dst := fact(d)
		if r := *fact(s); r != nil && !(dst == &d.Nondet && dirs.covers(p, e.Pos, "detsource")) {
			mergeReach(dst, r.through(p, e.Callee, e.Pos))
		}
	}
	for key, r := range s.Acquires {
		d.mergeAcquire(key, r.through(p, e.Callee, e.Pos))
	}
}

// mergeAcquire is mergeReach for d's acquisition of the mutex key.
func (d *FuncSummary) mergeAcquire(key string, r Reach) {
	if d.Acquires == nil {
		d.Acquires = make(map[string]*Reach)
	}
	cur := d.Acquires[key]
	mergeReach(&cur, r)
	d.Acquires[key] = cur
}

// declares reports whether fn is declared (with a body) in one of the
// module's packages; a staticCalls filter.
func (m *Module) declares(fn *types.Func) bool { return m.fns[fn] != nil }

// crossName renders a callee for witness chains: bare within the same
// package, package-qualified across packages.
func crossName(p *Package, fn *types.Func) string {
	if fn.Pkg() == p.Pkg {
		return fn.Name()
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// ctxParamIndex returns the index of fn's first context.Context
// parameter, or -1.
func ctxParamIndex(fn *types.Func) int {
	sig, ok := fn.Type().(*types.Signature)
	if !ok {
		return -1
	}
	for i := 0; i < sig.Params().Len(); i++ {
		if isContextType(sig.Params().At(i).Type()) {
			return i
		}
	}
	return -1
}

// isArenaRoot identifies the kernel's arena-returning method by
// identity: (geom.Snapshot).Row hands out slices into a reusable arena,
// which is the whole arenaalias contract.
func isArenaRoot(fn *types.Func) bool { return isSnapshotMethod(fn, "Row") }

// isSnapshotMethod reports whether fn is one of the named methods of
// the kernel's geom.Snapshot.
func isSnapshotMethod(fn *types.Func, names ...string) bool {
	named := recvNamed(fn)
	if named == nil || named.Obj().Name() != "Snapshot" || fn.Pkg() == nil {
		return false
	}
	if path := fn.Pkg().Path(); path != "luxvis/internal/geom" && path != "internal/geom" {
		return false
	}
	return slices.Contains(names, fn.Name())
}

// arenaSourceCall reports whether call yields an arena-aliasing slice:
// an arena root, or a module function summarized as arena-returning.
func (m *Module) arenaSourceCall(p *Package, call *ast.CallExpr) bool {
	fn := p.StaticCallee(call)
	if fn == nil {
		return false
	}
	if isArenaRoot(fn) {
		return true
	}
	s := m.Summary(fn)
	return s != nil && s.ArenaReturn
}

// returnsArena reports whether fd's outer-frame return statements can
// return an arena-aliasing value.
func (m *Module) returnsArena(p *Package, fd *ast.FuncDecl) bool {
	st := taintLocals(taintSpec{
		p:          p,
		sourceCall: func(call *ast.CallExpr) bool { return m.arenaSourceCall(p, call) },
	}, fd.Body)
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		if _, ok := n.(*ast.FuncLit); ok {
			return false // a literal's returns are its own, not fd's
		}
		ret, ok := n.(*ast.ReturnStmt)
		if !ok {
			return true
		}
		for _, res := range ret.Results {
			if st.tainted(res) {
				found = true
			}
		}
		return true
	})
	return found
}

// computeSinkParams runs wireformat's wrapper-discovery fixpoint for
// one package, consulting dependency summaries, and stores the result
// into the package's function summaries.
func (m *Module) computeSinkParams(p *Package) {
	paramIndex := make(map[*types.Func]map[types.Object]int)
	for _, fn := range m.funcs[p] {
		fd := m.fns[fn].decl
		idx := make(map[types.Object]int)
		i := 0
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				for _, name := range field.Names {
					if obj := p.Info.Defs[name]; obj != nil {
						idx[obj] = i
					}
					i++
				}
			}
		}
		paramIndex[fn] = idx
	}

	for changed := true; changed; {
		changed = false
		for _, fn := range m.funcs[p] {
			ast.Inspect(m.fns[fn].decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				for _, argIdx := range m.sinkArgIndices(p, call) {
					if argIdx >= len(call.Args) {
						continue
					}
					id, ok := ast.Unparen(call.Args[argIdx]).(*ast.Ident)
					if !ok {
						continue
					}
					obj := p.Info.Uses[id]
					pi, isParam := paramIndex[fn][obj]
					if !isParam {
						continue
					}
					if _, ok := obj.Type().Underlying().(*types.Interface); !ok {
						continue // concrete param: its sink call names the type itself
					}
					s := &m.fns[fn].sum
					if s.SinkParams == nil {
						s.SinkParams = make(map[int]bool)
					}
					if !s.SinkParams[pi] {
						s.SinkParams[pi] = true
						changed = true
					}
				}
				return true
			})
		}
	}
}

// sinkArgIndices returns the indices of call's arguments that reach a
// JSON sink: arg 0 of json.Marshal/MarshalIndent/(*json.Encoder).Encode,
// or the summarized sink parameters of any module-local wrapper — in
// this package or any other.
func (m *Module) sinkArgIndices(p *Package, call *ast.CallExpr) []int {
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkgNameOf(p, sel.X) == "encoding/json" &&
			(sel.Sel.Name == "Marshal" || sel.Sel.Name == "MarshalIndent") {
			return []int{0}
		}
		if fn := methodObjOf(p, sel); fn != nil && fn.Pkg() != nil &&
			fn.Pkg().Path() == "encoding/json" && fn.Name() == "Encode" {
			return []int{0}
		}
	}
	callee := p.StaticCallee(call)
	if callee == nil {
		return nil
	}
	s := m.Summary(callee)
	if s == nil || len(s.SinkParams) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.SinkParams))
	for i := range s.SinkParams {
		out = append(out, i)
	}
	slices.Sort(out)
	return out
}

// IsModuleStruct reports whether named is declared in one of the
// module's packages — the scope within which wireformat can demand
// explicit tags no matter how many packages sit between the struct and
// the marshal site.
func (m *Module) IsModuleStruct(named *types.Named) bool {
	if named == nil || named.Obj().Pkg() == nil {
		return false
	}
	_, ok := m.byPath[named.Obj().Pkg().Path()]
	return ok
}
