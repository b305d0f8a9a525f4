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
// Blocking operations (locksafe, ctxflow's Blocks, goleak).

// lockedOp is one operation forbidden under a lock. observer marks
// sim.Observer callbacks: forbidden under a lock, but not blocking
// operations in their own right — the Blocks summaries (which ctxflow
// consumes) exclude them.
type lockedOp struct {
	pos      token.Pos
	desc     string
	observer bool
}

// blockingOps is one frame's blocking-operation facts.
type blockingOps struct {
	// unsafe lists, in source order, every operation that must not
	// happen under a lock (locksafe).
	unsafe []lockedOp
	// risk is the earliest operation that can block forever or loop
	// without bound; evidence the earliest goroutine-termination
	// evidence — a ctx.Done()/module-closed-channel receive, a ctx.Err()
	// poll, or a sync.WaitGroup join (goleak).
	risk, evidence *Reach
}

// classifyBlocking walks one frame and classifies its channel
// operations, selects, loops, waits, sleeps and observer callbacks for
// both lock safety and goroutine termination. closed is the module's
// closed-channel-object scope for the frame's package (own closes plus
// every transitive dependency's). A select with a default case is
// exempt from the lock rules — every communication inside it is
// non-blocking by construction — and a select without one subsumes the
// lock-unsafe operations of its clauses; either way goleak still walks
// the clause bodies and takes its cases' receives as evidence.
func classifyBlocking(p *Package, closed map[types.Object][]chanSite, frame ast.Node) blockingOps {
	var ops blockingOps
	noteRisk := func(pos token.Pos, desc string) { mergeReach(&ops.risk, Reach{Desc: desc, Pos: pos}) }
	noteEvidence := func(pos token.Pos, desc string) { mergeReach(&ops.evidence, Reach{Desc: desc, Pos: pos}) }
	// classifyRecv grades one channel receive for goleak. blocking
	// distinguishes a bare receive (blocks until satisfied) from a
	// select case (the select carries the blocking risk itself).
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
			if named := namedOf(p.TypeOf(sel.X)); named != nil && named.Obj().Pkg() != nil &&
				named.Obj().Pkg().Path() == "time" {
				return // Timer/Ticker channel: fires on its own
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
	// walk scans root; underSelect mutes the lock rules inside the
	// clauses of a select without default.
	var walk func(root ast.Node, underSelect bool)
	walk = func(root ast.Node, underSelect bool) {
		unsafe := func(pos token.Pos, desc string, observer bool) {
			if !underSelect {
				ops.unsafe = append(ops.unsafe, lockedOp{pos: pos, desc: desc, observer: observer})
			}
		}
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
					unsafe(n.Select, "selects without a default case (may block)", false)
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
						walk(stmt, underSelect || !hasDefault)
					}
				}
				return false
			case *ast.SendStmt:
				unsafe(n.Arrow, "sends on a channel", false)
				noteRisk(n.Arrow, "sends on a channel")
			case *ast.UnaryExpr:
				if n.Op == token.ARROW {
					unsafe(n.OpPos, "receives from a channel", false)
					classifyRecv(n.X, n.OpPos, true)
				}
			case *ast.RangeStmt:
				if t := p.TypeOf(n.X); t != nil {
					if _, ok := t.Underlying().(*types.Chan); ok {
						unsafe(n.Range, "ranges over a channel (blocks between elements)", false)
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
				sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr)
				if !ok {
					break
				}
				fn := methodObjOf(p, sel)
				switch {
				case isObserverCall(p, sel):
					unsafe(n.Pos(), "invokes sim.Observer."+sel.Sel.Name, true)
				case isSyncMethod(fn, "Wait"):
					unsafe(n.Pos(), "waits on "+exprString(sel.X), false)
					if named := recvNamed(fn); named != nil {
						switch named.Obj().Name() {
						case "WaitGroup":
							noteEvidence(n.Pos(), "joins a sync.WaitGroup")
						case "Cond":
							noteRisk(n.Pos(), "waits on a sync.Cond")
						}
					}
				case pkgNameOf(p, sel.X) == "time" && sel.Sel.Name == "Sleep":
					unsafe(n.Pos(), "sleeps", false)
				case fn != nil && fn.Pkg() != nil && fn.Pkg().Path() == "context" && fn.Name() == "Err":
					noteEvidence(n.Pos(), "polls ctx.Err()")
				}
			}
			return true
		})
	}
	walk(frame, false)
	sort.Slice(ops.unsafe, func(i, j int) bool { return ops.unsafe[i].pos < ops.unsafe[j].pos })
	return ops
}

// ---------------------------------------------------------------------
// Lock-acquisition-order facts (lockorder).

// lockKeyOf derives a stable, type-level identity for the mutex a
// Lock/RLock/Unlock call sel acts on: "pkgpath.Type.field" for a mutex
// field, "pkgpath.var" for a package-level mutex, the promoted field
// ("pkgpath.Type.Mutex") for a mutex embedded in the operand's struct
// (`c.Lock()` on a local or parameter c), and "" when the mutex cannot
// be named across frames (a local mutex, map entries, dynamic
// expressions) — lock order over unnamed instances is not a class this
// analysis can adjudicate, so those acquisitions fail toward silence.
func lockKeyOf(p *Package, sel *ast.SelectorExpr) (key, disp string) {
	if key, disp = operandKey(p, sel.X); key != "" {
		return key, disp
	}
	return promotedKey(p, sel)
}

// promotedKey names the embedded mutex through which sel's method is
// promoted: the last embedded field on the selection's path, keyed by
// the struct type that declares it.
func promotedKey(p *Package, sel *ast.SelectorExpr) (key, disp string) {
	s, ok := p.Info.Selections[sel]
	if !ok || len(s.Index()) < 2 {
		return "", ""
	}
	t := s.Recv()
	var owner *types.Named
	var field *types.Var
	for _, i := range s.Index()[:len(s.Index())-1] {
		owner = namedOf(t)
		if owner == nil {
			return "", ""
		}
		st, ok := owner.Underlying().(*types.Struct)
		if !ok {
			return "", ""
		}
		field = st.Field(i)
		t = field.Type()
	}
	obj := owner.Obj()
	return obj.Pkg().Path() + "." + obj.Name() + "." + field.Name(),
		obj.Pkg().Name() + "." + obj.Name() + "." + field.Name()
}

// operandKey is lockKeyOf for a mutex operand named by a package-level
// variable or a struct field.
func operandKey(p *Package, operand ast.Expr) (key, disp string) {
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
		named := namedOf(p.TypeOf(e.X))
		if named == nil {
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

// lockCall is one Lock/RLock/Unlock/RUnlock call of a frame, carrying
// both identities the analyzers key a mutex by.
type lockCall struct {
	pos       token.Pos
	mu        string // the receiver as written, e.g. "w.mu"
	key, disp string // lockKeyOf's type-level key and display name; "" when unnamed
	lock      bool   // Lock or RLock; false for an unlock
	// release is where an unlock takes effect: the call itself, the
	// closing brace of the in-place literal a deferred unlock sits in,
	// or NoPos for a deferred unlock of the frame (held to its end).
	release token.Pos
}

// frameLocks is the one lock scan: it lists one frame's lock and unlock
// calls in source order. methodObjOf sees through embedding, so
// `s.Lock()` on a struct embedding sync.Mutex counts; RLock counts as a
// lock (a read lock mixed into a cycle with writers still deadlocks).
func frameLocks(p *Package, frame ast.Node) []lockCall {
	var out []lockCall
	// Pre-order guarantees a DeferStmt is seen before its CallExpr and
	// literal children, and a literal before its body, so all are
	// recorded by the time the call is visited as a plain node. A
	// deferred call runs when the innermost literal called in place
	// around it returns, or at the end of the frame outside any. A
	// deferred literal is not one of those: it runs when its own
	// enclosing literal (or the frame) returns, so an unlock it defers
	// takes effect there too.
	var lits []*ast.FuncLit
	deferredLit := make(map[*ast.FuncLit]bool)
	deferred := make(map[*ast.CallExpr]token.Pos)
	inspectFrame(frame, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			if !deferredLit[n] {
				lits = append(lits, n)
			}
		case *ast.DeferStmt:
			if fl, ok := ast.Unparen(n.Call.Fun).(*ast.FuncLit); ok {
				deferredLit[fl] = true
			}
			deferred[n.Call] = token.NoPos
			for _, fl := range lits {
				if fl.Pos() < n.Pos() && n.Pos() < fl.End() {
					deferred[n.Call] = fl.Body.Rbrace // later literals nest deeper
				}
			}
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
		lock := isSyncMethod(fn, "Lock", "RLock")
		if !lock && !isSyncMethod(fn, "Unlock", "RUnlock") {
			return true
		}
		key, disp := lockKeyOf(p, sel)
		c := lockCall{
			pos: call.Pos(), mu: exprString(sel.X), key: key, disp: disp,
			lock: lock, release: call.Pos(),
		}
		if at, ok := deferred[call]; ok && !lock {
			c.release = at
		}
		out = append(out, c)
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// lockRegion is one held span of a mutex within a frame, named by the
// lock call that opened it.
type lockRegion struct {
	lockCall
	end token.Pos
}

// lockRegions turns a frame's lock calls into held spans, in start
// order: from each lock to where the next unlock of the same mutex in
// source order takes effect (an early-return unlock inside a branch
// ends the region there; a deferred unlock inside an in-place literal
// ends it at the literal's closing brace), and to end — the end of the
// frame — when the frame itself defers the unlock or never unlocks. id
// names the mutex a call acts on: the rendered receiver (locksafe) or
// the type-level key (lockorder); calls with an empty id are skipped.
func lockRegions(calls []lockCall, end token.Pos, id func(lockCall) string) []lockRegion {
	var rs []lockRegion
	open := map[string]lockCall{}
	for _, c := range calls {
		k := id(c)
		start, held := open[k]
		switch {
		case k == "" || !c.lock && c.release == token.NoPos:
			// Unnamed, or the frame's deferred unlock: held to end-of-frame.
		case c.lock:
			if !held {
				open[k] = c
			}
		case held:
			rs = append(rs, lockRegion{lockCall: start, end: c.release})
			delete(open, k)
		}
	}
	for _, start := range open {
		rs = append(rs, lockRegion{lockCall: start, end: end})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].pos < rs[j].pos })
	return rs
}

// covering returns every region strictly containing pos — all the
// locks held there — in start order.
func covering(rs []lockRegion, pos token.Pos) []lockRegion {
	var out []lockRegion
	for _, r := range rs {
		if pos > r.pos && pos < r.end {
			out = append(out, r)
		}
	}
	return out
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
	var out []lockEdge
	byKey := func(c lockCall) string { return c.key }
	for _, fn := range m.Funcs(p) {
		fd := m.Decl(fn)
		for i, frame := range framesOf(fd) {
			calls := frameLocks(p, frame)
			regions := lockRegions(calls, frame.End(), byKey)
			if len(regions) == 0 {
				continue
			}
			label := frameLabel(fd, i)
			add := func(from lockRegion, to, toDisp string, pos token.Pos, via string) {
				if from.key == to {
					return
				}
				out = append(out, lockEdge{
					from: from.key, fromDisp: from.disp,
					to: to, toDisp: toDisp,
					pos: pos, frame: label, pkgName: p.Pkg.Name(), via: via,
					allowed: dirs.covers(p, pos, "lockorder"),
				})
			}
			for _, c := range calls {
				if !c.lock || c.key == "" {
					continue
				}
				for _, r := range covering(regions, c.pos) {
					add(r, c.key, c.disp, c.pos, "")
				}
			}
			for _, e := range staticCalls(p, frame, m.declares) {
				held := covering(regions, e.Pos)
				if len(held) == 0 {
					continue
				}
				// Map order is harmless: the sort below orders edges
				// totally (one edge per site, held key and acquired key).
				for k, r := range m.Summary(e.Callee).Acquires {
					w := r.through(p, e.Callee, e.Pos)
					for _, r := range held {
						add(r, k, w.Desc, e.Pos, w.Chain())
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
