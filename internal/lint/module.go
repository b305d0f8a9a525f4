package lint

import (
	"go/ast"
	"go/token"
	"go/types"
)

// Module is the whole-program view the cross-package analyzers run
// over: every loaded package sharing one type-checked universe, a
// function->package index spanning package boundaries, and a summary
// per declared function. Summaries are computed bottom-up in dependency
// order, so by the time a package is summarized every module-local
// callee below it already has its facts; the per-package intra
// call-graph (callgraph.go) then closes the facts over local recursion.
//
// A summary only ever describes a function's transitive
// *dependencies*, so a package's findings are a function of its own
// sources and its module-local dependencies: the same whether its
// dependents are loaded or not.
type Module struct {
	pkgs   []*Package // dependency order
	byPath map[string]*Package
	owner  map[*types.Func]*Package
	sums   map[*types.Func]*FuncSummary

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
	// kernel-arena visibility row (geom.Snapshot.Row, geom.RowCache
	// VisibleSet, or any wrapper returning their result). Consumed by
	// arenaalias.
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
		owner:       make(map[*types.Func]*Package),
		sums:        make(map[*types.Func]*FuncSummary),
		chans:       make(map[*Package]*chanFacts),
		closedScope: make(map[*Package]map[types.Object][]chanSite),
		lockEdges:   make(map[*Package][]lockEdge),
	}
	for _, p := range pkgs {
		m.byPath[p.Path] = p
	}
	m.pkgs = dependencyOrder(pkgs)
	for _, p := range m.pkgs {
		g := p.CallGraph()
		for _, fn := range g.Funcs() {
			m.owner[fn] = p
			m.sums[fn] = &FuncSummary{
				CtxParam:    ctxParamIndex(fn),
				ArenaReturn: isArenaRoot(fn),
			}
		}
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

// Packages returns the module's packages in dependency order.
func (m *Module) Packages() []*Package { return m.pkgs }

// Summary returns fn's summary, or nil when fn is not declared (with a
// body) in the module — a standard-library or bodiless function.
func (m *Module) Summary(fn *types.Func) *FuncSummary {
	if fn == nil {
		return nil
	}
	return m.sums[fn]
}

// Owner returns the package fn is declared in, or nil.
func (m *Module) Owner(fn *types.Func) *Package { return m.owner[fn] }

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

// summarize computes p's function summaries, assuming every module
// dependency of p is already summarized.
func (m *Module) summarize(p *Package) {
	g := p.CallGraph()
	dirs, _ := collectDirectives(p)

	// Pass 1: direct facts per function. "Direct" includes calls into
	// other, already-summarized packages: the callee's summary becomes a
	// fact at the call site with the callee prepended to the witness
	// chain. The intra-package Propagate pass then closes everything
	// over local call chains and recursion.
	lockDirect := make(map[*types.Func]Reach)
	blockDirect := make(map[*types.Func]Reach)
	nondetDirect := make(map[*types.Func]Reach)
	leakDirect := make(map[*types.Func]Reach)
	termDirect := make(map[*types.Func]Reach)
	// Acquisition facts are per mutex key: one direct map (and one
	// propagation) per named mutex the package touches. acqKeys keeps
	// first-appearance order for deterministic processing.
	acqDirect := make(map[string]map[*types.Func]Reach)
	var acqKeys []string
	noteAcq := func(key string, fn *types.Func, r Reach) {
		mm := acqDirect[key]
		if mm == nil {
			mm = make(map[*types.Func]Reach)
			acqDirect[key] = mm
			acqKeys = append(acqKeys, key)
		}
		mergeDirect(mm, fn, r)
	}
	closed := m.closedScope[p]
	for _, fn := range g.Funcs() {
		body := g.Decl(fn).Body

		// Lock-unsafe and blocking ops: outer frame only — a stored
		// closure's ops do not run just because the function is called.
		ops := collectUnsafeOps(p, body)
		var firstOp, firstBlocking *lockedOp
		for i := range ops {
			if firstOp == nil {
				firstOp = &ops[i]
			}
			if firstBlocking == nil && !ops[i].observer {
				firstBlocking = &ops[i]
			}
		}
		if firstOp != nil {
			lockDirect[fn] = Reach{Desc: firstOp.desc, Pos: firstOp.pos}
		}
		if firstBlocking != nil {
			blockDirect[fn] = Reach{Desc: firstBlocking.desc, Pos: firstBlocking.pos}
		}

		// Determinism taint: whole body (a goroutine launched by the
		// call still executes its wall-clock read), allow-filtered.
		if op := firstNondetOp(p, body, dirs); op != nil {
			nondetDirect[fn] = Reach{Desc: op.desc, Pos: op.pos}
		}

		// Goroutine-termination facts: outer frame only, like the lock
		// facts — a stored closure's ops run on another frame's clock.
		risk, ev := collectLeakOps(p, closed, body)
		if risk != nil {
			leakDirect[fn] = Reach{Desc: risk.desc, Pos: risk.pos}
		}
		if ev != nil {
			termDirect[fn] = Reach{Desc: ev.desc, Pos: ev.pos}
		}

		// Named-mutex acquisitions: outer frame (a spawned goroutine's
		// acquisition does not nest under the caller's held locks).
		for _, acq := range lockAcquisitions(p, body) {
			noteAcq(acq.key, fn, Reach{Desc: acq.disp, Pos: acq.pos})
		}

		// Cross-package call facts, earliest call site first.
		for _, e := range staticCalls(p, body, m.crossPackage(p)) {
			s := m.sums[e.Callee]
			name := crossName(p, e.Callee)
			if s.LockUnsafe != nil {
				mergeDirect(lockDirect, fn, Reach{
					Desc: s.LockUnsafe.Desc, Pos: e.Pos,
					Via: append([]string{name}, s.LockUnsafe.Via...),
				})
			}
			if s.Blocks != nil {
				mergeDirect(blockDirect, fn, Reach{
					Desc: s.Blocks.Desc, Pos: e.Pos,
					Via: append([]string{name}, s.Blocks.Via...),
				})
			}
			if s.Nondet != nil && !dirs.covers(p, e.Pos, "detsource") {
				mergeDirect(nondetDirect, fn, Reach{
					Desc: s.Nondet.Desc, Pos: e.Pos,
					Via: append([]string{name}, s.Nondet.Via...),
				})
			}
			if s.LeakRisk != nil {
				mergeDirect(leakDirect, fn, Reach{
					Desc: s.LeakRisk.Desc, Pos: e.Pos,
					Via: append([]string{name}, s.LeakRisk.Via...),
				})
			}
			if s.TermEvidence != nil {
				mergeDirect(termDirect, fn, Reach{
					Desc: s.TermEvidence.Desc, Pos: e.Pos,
					Via: append([]string{name}, s.TermEvidence.Via...),
				})
			}
			for _, key := range sortedReachKeys(s.Acquires) {
				r := s.Acquires[key]
				noteAcq(key, fn, Reach{
					Desc: r.Desc, Pos: e.Pos,
					Via: append([]string{name}, r.Via...),
				})
			}
		}
	}

	// Pass 2: intra-package transitive closure.
	lockReach := g.Propagate(lockDirect)
	blockReach := g.Propagate(blockDirect)
	nondetReach := g.Propagate(nondetDirect)
	leakReach := g.Propagate(leakDirect)
	termReach := g.Propagate(termDirect)
	for _, fn := range g.Funcs() {
		s := m.sums[fn]
		s.LockUnsafe = lockReach[fn]
		s.Blocks = blockReach[fn]
		s.Nondet = nondetReach[fn]
		s.LeakRisk = leakReach[fn]
		s.TermEvidence = termReach[fn]
	}
	for _, key := range acqKeys {
		reach := g.Propagate(acqDirect[key])
		for _, fn := range g.Funcs() {
			r := reach[fn]
			if r == nil {
				continue
			}
			s := m.sums[fn]
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
		for _, fn := range g.Funcs() {
			if m.sums[fn].ArenaReturn {
				continue
			}
			if m.returnsArena(p, g.Decl(fn)) {
				m.sums[fn].ArenaReturn = true
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

// mergeDirect records r as fn's direct fact if it is the first, or
// earlier in source order than the current one.
func mergeDirect(direct map[*types.Func]Reach, fn *types.Func, r Reach) {
	if cur, ok := direct[fn]; ok && cur.Pos <= r.Pos {
		return
	}
	direct[fn] = r
}

// declares reports whether fn is declared (with a body) in one of the
// module's packages; a staticCalls filter.
func (m *Module) declares(fn *types.Func) bool { return m.owner[fn] != nil }

// crossPackage returns the staticCalls filter for callees declared in
// another module package than p.
func (m *Module) crossPackage(p *Package) func(*types.Func) bool {
	return func(fn *types.Func) bool {
		owner := m.owner[fn]
		return owner != nil && owner != p
	}
}

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

// isArenaRoot identifies the kernel's arena-returning methods by
// identity: (geom.Snapshot).Row and (geom.RowCache).VisibleSet hand out
// slices into reusable arenas, which is the whole arenaalias contract.
func isArenaRoot(fn *types.Func) bool {
	if fn == nil || fn.Pkg() == nil {
		return false
	}
	path := fn.Pkg().Path()
	if path != "luxvis/internal/geom" && path != "internal/geom" {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return false
	}
	recv := sig.Recv().Type()
	if ptr, ok := recv.(*types.Pointer); ok {
		recv = ptr.Elem()
	}
	named, ok := recv.(*types.Named)
	if !ok {
		return false
	}
	switch named.Obj().Name() {
	case "Snapshot":
		return fn.Name() == "Row"
	case "RowCache":
		return fn.Name() == "VisibleSet"
	}
	return false
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
	s := m.sums[fn]
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

// nondetOp is one determinism-tainting operation.
type nondetOp struct {
	pos  token.Pos
	desc string
}

// firstNondetOp returns the first determinism-tainting operation in
// body not covered by a //lint:allow detsource (or all) directive, or
// nil. The whole body is inspected — closures and goroutine bodies
// execute as a consequence of calling the function, so their taint is
// the caller's taint.
func firstNondetOp(p *Package, body ast.Node, dirs *directiveSet) *nondetOp {
	var first *nondetOp
	note := func(pos token.Pos, desc string) {
		if dirs != nil && dirs.covers(p, pos, "detsource") {
			return
		}
		if first == nil || pos < first.pos {
			first = &nondetOp{pos: pos, desc: desc}
		}
	}
	ast.Inspect(body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			switch pkgNameOf(p, sel.X) {
			case "time":
				if wallClockFuncs[sel.Sel.Name] {
					note(n.Pos(), "reads the wall clock (time."+sel.Sel.Name+")")
				}
			case "math/rand", "math/rand/v2":
				if !seededRandFuncs[sel.Sel.Name] {
					note(n.Pos(), "draws from the global math/rand source (rand."+sel.Sel.Name+")")
				}
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Map); ok {
					note(n.Range, "iterates a map (randomized order)")
				}
			}
		}
		return true
	})
	return first
}

// computeSinkParams runs wireformat's wrapper-discovery fixpoint for
// one package, consulting dependency summaries, and stores the result
// into the package's function summaries.
func (m *Module) computeSinkParams(p *Package) {
	g := p.CallGraph()

	paramIndex := make(map[*types.Func]map[types.Object]int)
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
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
		for _, fn := range g.Funcs() {
			fd := g.Decl(fn)
			ast.Inspect(fd.Body, func(n ast.Node) bool {
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
					s := m.sums[fn]
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
	s := m.sums[callee]
	if s == nil || len(s.SinkParams) == 0 {
		return nil
	}
	out := make([]int, 0, len(s.SinkParams))
	for i := range s.SinkParams {
		out = append(out, i)
	}
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j] < out[j-1]; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
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
