package lint

// Concurrency-soundness facts shared by the goleak, lockorder and
// chanown analyzers: per-package channel ownership records (who sends,
// who closes, per frame), per-function goroutine-termination facts
// (leak risk and termination evidence), and the lock-acquisition-order
// edges over named mutex objects. Everything here is computed
// bottom-up per package in module dependency order, so a package's
// facts only ever depend on itself and its transitive dependencies.

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// concScope lists the concurrency-bearing packages where goleak and
// chanown report: the goroutine runtime, the engine, the streaming
// hub, the HTTP service and the experiment harness. Fact *collection*
// is module-wide (a channel closed in stream pardons a receive in
// serve); only reporting is scoped.
var concScope = []string{
	"internal/stream", "internal/serve", "internal/rt", "internal/sim", "internal/exp",
}

// frameLabel names one analysis frame for finding messages: the
// declaration's name, or "name (func literal)" for a goroutine body or
// stored closure inside it.
func frameLabel(fd *ast.FuncDecl, i int) string {
	if i == 0 {
		return fd.Name.Name
	}
	return fd.Name.Name + " (func literal)"
}

// ---------------------------------------------------------------------
// Channel ownership facts (chanown, and goleak's closed-channel
// evidence).

// chanSite is one send or close of a named channel object.
type chanSite struct {
	frame string // frame label, e.g. "worker" or "Close (func literal)"
	pkg   string // short package name, for cross-package messages
	expr  string // the channel expression as written at the site
	pos   token.Pos
}

// chanFacts is one package's syntactic channel-discipline record,
// keyed by the channel's *types.Var identity (fields and package-level
// variables resolve across packages through the shared universe).
type chanFacts struct {
	order  []types.Object // first-appearance order, for deterministic output
	closes map[types.Object][]chanSite
	sends  map[types.Object][]chanSite
}

// chanObjOf resolves a channel expression to a stable object identity
// (a variable or field), or nil for dynamic expressions (map entries,
// function results).
func chanObjOf(p *Package, e ast.Expr) (types.Object, string) {
	e = ast.Unparen(e)
	switch e := e.(type) {
	case *ast.Ident:
		obj := p.Info.Uses[e]
		if obj == nil {
			obj = p.Info.Defs[e]
		}
		if v, ok := obj.(*types.Var); ok {
			return v, e.Name
		}
	case *ast.SelectorExpr:
		if s, ok := p.Info.Selections[e]; ok {
			if v, ok := s.Obj().(*types.Var); ok {
				return v, exprString(e)
			}
			return nil, ""
		}
		if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok {
			return v, exprString(e)
		}
	}
	return nil, ""
}

// isCloseCall reports whether call is the builtin close.
func isCloseCall(p *Package, call *ast.CallExpr) bool {
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "close" {
		return false
	}
	_, builtin := p.Info.Uses[id].(*types.Builtin)
	return builtin
}

// collectChanFacts records every send and close of a resolvable
// channel object in p, attributed to the frame (declaration or stored
// literal) that performs it.
func collectChanFacts(p *Package) *chanFacts {
	f := &chanFacts{
		closes: make(map[types.Object][]chanSite),
		sends:  make(map[types.Object][]chanSite),
	}
	seen := make(map[types.Object]bool)
	touch := func(obj types.Object) {
		if !seen[obj] {
			seen[obj] = true
			f.order = append(f.order, obj)
		}
	}
	for _, file := range p.Files {
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			for i, frame := range framesOf(fd) {
				label := frameLabel(fd, i)
				inspectFrame(frame, func(n ast.Node) bool {
					switch n := n.(type) {
					case *ast.SendStmt:
						if obj, name := chanObjOf(p, n.Chan); obj != nil {
							touch(obj)
							f.sends[obj] = append(f.sends[obj], chanSite{
								frame: label, pkg: p.Pkg.Name(), expr: name, pos: n.Arrow,
							})
						}
					case *ast.CallExpr:
						if isCloseCall(p, n) && len(n.Args) == 1 {
							if obj, name := chanObjOf(p, n.Args[0]); obj != nil {
								touch(obj)
								f.closes[obj] = append(f.closes[obj], chanSite{
									frame: label, pkg: p.Pkg.Name(), expr: name, pos: n.Pos(),
								})
							}
						}
					}
					return true
				})
			}
		}
	}
	return f
}

// depClosure returns p's transitive module-local dependencies in
// dependency order (dependencies before dependents), excluding p
// itself. Import iteration is path-sorted, so the result is
// deterministic.
func (m *Module) depClosure(p *Package) []*Package {
	var out []*Package
	seen := map[*Package]bool{p: true}
	var visit func(q *Package)
	visit = func(q *Package) {
		imps := q.Pkg.Imports()
		paths := make([]string, 0, len(imps))
		for _, imp := range imps {
			paths = append(paths, imp.Path())
		}
		sort.Strings(paths)
		for _, path := range paths {
			dep, ok := m.byPath[path]
			if !ok || seen[dep] {
				continue
			}
			seen[dep] = true
			visit(dep)
			out = append(out, dep)
		}
	}
	visit(p)
	return out
}

// ---------------------------------------------------------------------
// Goroutine termination facts (goleak).

// collectLeakOps walks one frame and returns its earliest leak risk —
// an operation that can block forever or loop without bound — and its
// earliest termination evidence: a ctx.Done()/module-closed-channel
// receive, a ctx.Err() poll, or a sync.WaitGroup join. A frame whose
// risk has no evidence anywhere on its exit paths is what goleak
// reports. closed is the module's closed-channel-object scope for the
// frame's package (own closes plus every transitive dependency's).
func collectLeakOps(p *Package, closed map[types.Object][]chanSite, frame ast.Node) (risk, evidence *lockedOp) {
	noteRisk := func(pos token.Pos, desc string) {
		if risk == nil || pos < risk.pos {
			risk = &lockedOp{pos: pos, desc: desc}
		}
	}
	noteEvidence := func(pos token.Pos, desc string) {
		if evidence == nil || pos < evidence.pos {
			evidence = &lockedOp{pos: pos, desc: desc}
		}
	}
	// classifyRecv grades one channel receive. blocking distinguishes a
	// bare receive (blocks until satisfied) from a select case (the
	// select carries the blocking risk itself).
	classifyRecv := func(operand ast.Expr, pos token.Pos, blocking bool) {
		operand = ast.Unparen(operand)
		if call, ok := operand.(*ast.CallExpr); ok {
			if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
				if fn := methodObjOf(p, sel); fn != nil && fn.Pkg() != nil &&
					fn.Pkg().Path() == "context" && fn.Name() == "Done" {
					noteEvidence(pos, "receives from ctx.Done()")
					return
				}
				if pkgNameOf(p, sel.X) == "time" && (sel.Sel.Name == "After" || sel.Sel.Name == "Tick") {
					return // fires on its own; bounded for a single receive
				}
			}
		}
		if sel, ok := operand.(*ast.SelectorExpr); ok && sel.Sel.Name == "C" {
			if t := p.TypeOf(sel.X); t != nil {
				if ptr, ok := t.(*types.Pointer); ok {
					t = ptr.Elem()
				}
				if named, ok := t.(*types.Named); ok && named.Obj().Pkg() != nil &&
					named.Obj().Pkg().Path() == "time" {
					return // Timer/Ticker channel: fires on its own
				}
			}
		}
		if obj, name := chanObjOf(p, operand); obj != nil && len(closed[obj]) > 0 {
			noteEvidence(pos, "receives on "+name+", which this module closes")
			return
		}
		if blocking {
			noteRisk(pos, "receives on a channel with no close in scope")
		}
	}
	var scan func(root ast.Node)
	scan = func(root ast.Node) {
		inspectFrame(root, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectStmt:
				hasDefault := false
				for _, c := range n.Body.List {
					if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
						hasDefault = true
					}
				}
				if !hasDefault {
					noteRisk(n.Select, "selects with no default case")
				}
				for _, c := range n.Body.List {
					cc := c.(*ast.CommClause)
					switch comm := cc.Comm.(type) {
					case *ast.ExprStmt:
						if ue, ok := ast.Unparen(comm.X).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
							classifyRecv(ue.X, ue.OpPos, false)
						}
					case *ast.AssignStmt:
						if len(comm.Rhs) == 1 {
							if ue, ok := ast.Unparen(comm.Rhs[0]).(*ast.UnaryExpr); ok && ue.Op == token.ARROW {
								classifyRecv(ue.X, ue.OpPos, false)
							}
						}
					}
					for _, stmt := range cc.Body {
						scan(stmt)
					}
				}
				return false
			case *ast.SendStmt:
				noteRisk(n.Arrow, "sends on a channel")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					classifyRecv(n.X, n.OpPos, true)
				}
			case *ast.RangeStmt:
				if t := p.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						if obj, name := chanObjOf(p, n.X); obj != nil && len(closed[obj]) > 0 {
							noteEvidence(n.Range, "ranges over "+name+", which this module closes")
						} else {
							noteRisk(n.Range, "ranges over a channel with no close in scope")
						}
					}
				}
			case *ast.ForStmt:
				if n.Cond == nil {
					noteRisk(n.For, "loops without a bound (for {})")
				}
			case *ast.CallExpr:
				if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
					fn := methodObjOf(p, sel)
					if isSyncMethod(fn, "Wait") {
						switch recvTypeName(fn) {
						case "WaitGroup":
							noteEvidence(n.Pos(), "joins a sync.WaitGroup")
						case "Cond":
							noteRisk(n.Pos(), "waits on a sync.Cond")
						}
					}
					if fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" && fn.Name() == "Err" {
						noteEvidence(n.Pos(), "polls ctx.Err()")
					}
				}
			}
			return true
		})
	}
	scan(frame)
	return risk, evidence
}

// recvTypeName returns the name of a method's receiver named type
// (through one pointer), or "".
func recvTypeName(fn *types.Func) string {
	if fn == nil {
		return ""
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return ""
	}
	t := sig.Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); ok {
		return named.Obj().Name()
	}
	return ""
}

// ---------------------------------------------------------------------
// Lock-acquisition-order facts (lockorder).

// lockKeyOf derives a stable, type-level identity for the operand of a
// Lock/RLock/Unlock call: "pkgpath.Type.field" for a mutex field,
// "pkgpath.var" for a package-level mutex, and "" when the mutex
// cannot be named across frames (locals, map entries, dynamic
// expressions) — lock order over unnamed instances is not a class this
// analysis can adjudicate, so those acquisitions fail toward silence.
func lockKeyOf(p *Package, operand ast.Expr) (key, disp string) {
	operand = ast.Unparen(operand)
	switch e := operand.(type) {
	case *ast.Ident:
		v, ok := p.Info.Uses[e].(*types.Var)
		if !ok || v.Pkg() == nil {
			return "", ""
		}
		if v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name(), v.Pkg().Name() + "." + v.Name()
		}
		return "", ""
	case *ast.SelectorExpr:
		if pkgNameOf(p, e.X) != "" {
			if v, ok := p.Info.Uses[e.Sel].(*types.Var); ok && v.Pkg() != nil {
				return v.Pkg().Path() + "." + v.Name(), v.Pkg().Name() + "." + v.Name()
			}
			return "", ""
		}
		var v *types.Var
		if s, ok := p.Info.Selections[e]; ok {
			v, _ = s.Obj().(*types.Var)
		} else if u, ok := p.Info.Uses[e.Sel].(*types.Var); ok {
			v = u
		}
		if v == nil || v.Pkg() == nil || !v.IsField() {
			return "", ""
		}
		t := p.TypeOf(e.X)
		for {
			ptr, ok := t.(*types.Pointer)
			if !ok {
				break
			}
			t = ptr.Elem()
		}
		named, ok := t.(*types.Named)
		if !ok {
			return "", ""
		}
		owner := named.Obj()
		pkgName := v.Pkg().Name()
		if owner.Pkg() != nil {
			pkgName = owner.Pkg().Name()
		}
		return v.Pkg().Path() + "." + owner.Name() + "." + v.Name(),
			pkgName + "." + owner.Name() + "." + v.Name()
	}
	return "", ""
}

// lockAcq is one named-mutex acquisition site.
type lockAcq struct {
	key, disp string
	pos       token.Pos
}

// lockAcquisitions lists the named-mutex Lock/RLock sites of one
// frame, in source order. RLock counts: a read lock mixed into a cycle
// with writers still deadlocks.
func lockAcquisitions(p *Package, frame ast.Node) []lockAcq {
	var out []lockAcq
	inspectFrame(frame, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if !isSyncMethod(methodObjOf(p, sel), "Lock", "RLock") {
			return true
		}
		if key, disp := lockKeyOf(p, sel.X); key != "" {
			out = append(out, lockAcq{key: key, disp: disp, pos: call.Pos()})
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// keyRegion is one held span of a named mutex within a frame.
type keyRegion struct {
	key, disp  string
	start, end token.Pos
}

type keyRegions []keyRegion

// covering returns every region strictly containing pos — all the
// named locks held there.
func (rs keyRegions) covering(pos token.Pos) []keyRegion {
	var out []keyRegion
	for _, r := range rs {
		if pos > r.start && pos < r.end {
			out = append(out, r)
		}
	}
	return out
}

// lockKeyRegions computes the held spans of named mutexes in one
// frame, with the same source-position semantics as lockedRegions
// (locksafe.go): lock to matching unlock in source order, end-of-frame
// for deferred or missing unlocks.
func lockKeyRegions(p *Package, frame ast.Node) keyRegions {
	type event struct {
		pos       token.Pos
		key, disp string
		lock      bool
		deferred  bool
	}
	var events []event
	deferredCalls := make(map[*ast.CallExpr]bool)
	inspectFrame(frame, func(n ast.Node) bool {
		if ds, ok := n.(*ast.DeferStmt); ok {
			deferredCalls[ds.Call] = true
			return true
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		fn := methodObjOf(p, sel)
		var lock bool
		switch {
		case isSyncMethod(fn, "Lock", "RLock"):
			lock = true
		case isSyncMethod(fn, "Unlock", "RUnlock"):
		default:
			return true
		}
		key, disp := lockKeyOf(p, sel.X)
		if key == "" {
			return true
		}
		events = append(events, event{
			pos: call.Pos(), key: key, disp: disp, lock: lock, deferred: deferredCalls[call],
		})
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	var rs keyRegions
	open := map[string]event{}
	for _, e := range events {
		switch {
		case e.lock:
			if _, held := open[e.key]; !held {
				open[e.key] = e
			}
		case e.deferred:
			// Deferred unlock: held to end-of-frame; leave the region open.
		default:
			if start, held := open[e.key]; held {
				rs = append(rs, keyRegion{key: e.key, disp: e.disp, start: start.pos, end: e.pos})
				delete(open, e.key)
			}
		}
	}
	for _, start := range open {
		rs = append(rs, keyRegion{key: start.key, disp: start.disp, start: start.pos, end: frame.End()})
	}
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].start != rs[j].start {
			return rs[i].start < rs[j].start
		}
		return rs[i].key < rs[j].key
	})
	return rs
}

// lockEdge is one "acquires `to` while holding `from`" site.
type lockEdge struct {
	from, fromDisp string
	to, toDisp     string
	pos            token.Pos // the establishing site (inner acquisition, or call)
	frame          string    // frame label
	pkgName        string    // short package name
	via            string    // call chain to the inner acquisition, "" when direct
	allowed        bool      // a //lint:allow lockorder covers pos
}

// collectLockEdges derives p's lock-order edges: a direct acquisition
// of M inside a held region of L, or a call — inside a held region of
// L — to a module function whose summary acquires M. Self-edges
// (re-acquiring the same named class, e.g. hand-over-hand over two
// instances) are skipped: instance order is not a type-level class.
func collectLockEdges(p *Package, m *Module, dirs *directiveSet) []lockEdge {
	g := p.CallGraph()
	var out []lockEdge
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		for i, frame := range framesOf(fd) {
			regions := lockKeyRegions(p, frame)
			if len(regions) == 0 {
				continue
			}
			label := frameLabel(fd, i)
			add := func(from keyRegion, to, toDisp string, pos token.Pos, via string) {
				if from.key == to {
					return
				}
				out = append(out, lockEdge{
					from: from.key, fromDisp: from.disp,
					to: to, toDisp: toDisp,
					pos: pos, frame: label, pkgName: p.Pkg.Name(), via: via,
					allowed: dirs != nil && dirs.covers(p, pos, "lockorder"),
				})
			}
			for _, acq := range lockAcquisitions(p, frame) {
				for _, r := range regions.covering(acq.pos) {
					add(r, acq.key, acq.disp, acq.pos, "")
				}
			}
			for _, e := range staticCalls(p, frame, m.declares) {
				covering := regions.covering(e.Pos)
				if len(covering) == 0 {
					continue
				}
				s := m.Summary(e.Callee)
				if s == nil || len(s.Acquires) == 0 {
					continue
				}
				for _, k := range sortedReachKeys(s.Acquires) {
					r := s.Acquires[k]
					via := crossName(p, e.Callee)
					if c := r.Chain(); c != "" {
						via += " → " + c
					}
					for _, reg := range covering {
						add(reg, k, r.Desc, e.Pos, via)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].pos != out[j].pos {
			return out[i].pos < out[j].pos
		}
		if out[i].from != out[j].from {
			return out[i].from < out[j].from
		}
		return out[i].to < out[j].to
	})
	return out
}

// sortedReachKeys returns mp's keys sorted, for deterministic
// iteration over an Acquires map.
func sortedReachKeys(mp map[string]*Reach) []string {
	out := make([]string, 0, len(mp))
	for k := range mp {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
