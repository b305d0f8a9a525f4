package lint

import (
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// LockSafe proves the repo's central callback contract at build time:
// nothing that can block — and no sim.Observer callback — may run while
// a sync.Mutex/RWMutex is held. The contract comes from internal/rt,
// where one goroutine per robot shares a mutex-guarded world: an
// observer invoked under the world lock serializes the whole swarm (the
// documented rt.Options.Observer guarantee is "callbacks run outside
// the world lock"), and a channel operation under the lock turns a slow
// consumer into a deadlock of every robot at once.
//
// The analyzer tracks lock state per analysis frame — a function body,
// or the body of a function literal that is not invoked in place
// (goroutine bodies and stored callbacks hold their own discipline) —
// and then propagates through the package's call graph: a call made
// while a mutex is held is an error if the callee, directly or through
// any chain of package-local calls, invokes a sim.Observer callback,
// sends or receives on a channel, selects without a default case,
// ranges over a channel, waits on a sync.WaitGroup/Cond, or sleeps.
// Functions with the *Locked naming convention (callers hold the lock)
// are analyzed as if locked from entry.
//
// Approximations, chosen to fail toward silence rather than noise: lock
// regions are tracked in source-position order (an early-return unlock
// inside a branch ends the region at that unlock), a communication in a
// select that has a default case is non-blocking and exempt, and `go`
// statements are frame boundaries (the launched body runs outside the
// caller's locks, but is checked against its own).
//
// Since the cross-package module graph, calls into other module
// packages are no longer opaque: a call made under a lock is checked
// against the callee's LockUnsafe summary, so `mu.Lock(); sim.Run(...)`
// is reported in the serve layer even though the channel wait it
// reaches sits two packages down.
type LockSafe struct{}

// Name implements Analyzer.
func (LockSafe) Name() string { return "locksafe" }

// Doc implements Analyzer.
func (LockSafe) Doc() string {
	return "forbid observer callbacks and blocking operations (channels, waits) while a mutex is held"
}

// lockedOp is one directly-unsafe operation found in a function body.
// observer marks sim.Observer callbacks: forbidden under a lock, but not
// blocking operations in their own right — the module graph's Blocks
// summaries (which ctxflow consumes) exclude them.
type lockedOp struct {
	pos      token.Pos
	desc     string
	observer bool
}

// Check implements Analyzer. The summary pass (module.go)
// already did the reachability work — each function's LockUnsafe fact is
// closed over intra-package chains and cross-package call sites — so
// this pass only intersects each frame's locked regions with its own
// unsafe ops and with calls into summarized-unsafe functions.
func (a LockSafe) Check(p *Package, m *Module) []Finding {
	if !importsPkg(p, "sync") {
		return nil
	}
	g := p.CallGraph()

	var out []Finding
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		for i, frame := range framesOf(fd) {
			name := fd.Name.Name
			if i > 0 {
				name = fd.Name.Name + " (func literal)"
			}
			entryLocked := i == 0 && strings.HasSuffix(fd.Name.Name, "Locked")
			regions := lockedRegions(p, frame, entryLocked)
			if len(regions) == 0 {
				continue
			}
			for _, op := range collectUnsafeOps(p, frame) {
				if mu := regions.covering(op.pos); mu != "" {
					out = append(out, finding(p, a.Name(), op.pos, Error,
						"%s %s while holding %s; callbacks and blocking operations must run outside the lock",
						name, op.desc, mu))
				}
			}
			for _, e := range staticCalls(p, frame, m.declares) {
				s := m.Summary(e.Callee)
				if s == nil || s.LockUnsafe == nil {
					continue
				}
				mu := regions.covering(e.Pos)
				if mu == "" {
					continue
				}
				chain := crossName(p, e.Callee)
				if v := s.LockUnsafe.Chain(); v != "" {
					chain += " → " + v
				}
				out = append(out, finding(p, a.Name(), e.Pos, Error,
					"%s calls %s while holding %s, and %s %s (call chain %s); release the lock first",
					name, crossName(p, e.Callee), mu, lastName(chain), s.LockUnsafe.Desc, chain))
			}
		}
	}
	sortFindings(out)
	return out
}

// lastName returns the last element of an " → " chain.
func lastName(chain string) string {
	if i := strings.LastIndex(chain, " → "); i >= 0 {
		return chain[i+len(" → "):]
	}
	return chain
}

// collectUnsafeOps walks one frame for operations that must not happen
// under a lock. A select with a default case is exempt — every
// communication inside it is non-blocking by construction — though its
// clause bodies are still walked.
func collectUnsafeOps(p *Package, frame ast.Node) []lockedOp {
	var out []lockedOp
	add := func(pos token.Pos, desc string) {
		out = append(out, lockedOp{pos: pos, desc: desc})
	}
	inspectFrame(frame, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectStmt:
			hasDefault := false
			for _, c := range n.Body.List {
				if cc, ok := c.(*ast.CommClause); ok && cc.Comm == nil {
					hasDefault = true
				}
			}
			if !hasDefault {
				add(n.Select, "selects without a default case (may block)")
				return false // comm ops are subsumed by the select finding
			}
			for _, c := range n.Body.List {
				for _, stmt := range c.(*ast.CommClause).Body {
					out = append(out, collectUnsafeOps(p, stmt)...)
				}
			}
			return false
		case *ast.SendStmt:
			add(n.Arrow, "sends on a channel")
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				add(n.OpPos, "receives from a channel")
			}
		case *ast.RangeStmt:
			if t := p.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					add(n.Range, "ranges over a channel (blocks between elements)")
				}
			}
		case *ast.CallExpr:
			if sel, ok := ast.Unparen(n.Fun).(*ast.SelectorExpr); ok {
				if isObserverCall(p, sel) {
					out = append(out, lockedOp{pos: n.Pos(), desc: "invokes sim.Observer." + sel.Sel.Name, observer: true})
					return true
				}
				if isSyncMethod(methodObjOf(p, sel), "Wait") {
					add(n.Pos(), "waits on "+exprString(sel.X))
					return true
				}
				if pkgNameOf(p, sel.X) == "time" && sel.Sel.Name == "Sleep" {
					add(n.Pos(), "sleeps")
				}
			}
		}
		return true
	})
	sort.Slice(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// isObserverCall reports whether sel is a method call on a value whose
// static type is the luxvis/internal/sim.Observer interface.
func isObserverCall(p *Package, sel *ast.SelectorExpr) bool {
	t := p.TypeOf(sel.X)
	if t == nil {
		return false
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj.Name() != "Observer" || obj.Pkg() == nil {
		return false
	}
	if _, isIface := named.Underlying().(*types.Interface); !isIface {
		return false
	}
	return obj.Pkg().Path() == "luxvis/internal/sim" || obj.Pkg().Path() == "internal/sim"
}

// lockRegion is one held-mutex span of a frame, in source positions.
type lockRegion struct {
	mu         string // rendered receiver, e.g. "w.mu"
	start, end token.Pos
}

type lockRegions []lockRegion

// covering returns the mutex name of a region containing pos, or "".
func (rs lockRegions) covering(pos token.Pos) string {
	for _, r := range rs {
		if pos > r.start && pos < r.end {
			return r.mu
		}
	}
	return ""
}

// lockedRegions computes the held spans of one frame: from each
// Lock/RLock to the matching Unlock/RUnlock in source order, to
// end-of-frame when the unlock is deferred or missing, and the whole
// frame when entryLocked (the *Locked caller-holds-the-lock
// convention).
func lockedRegions(p *Package, frame ast.Node, entryLocked bool) lockRegions {
	var rs lockRegions
	end := frame.End()
	if entryLocked {
		rs = append(rs, lockRegion{mu: "the caller's lock", start: frame.Pos(), end: end})
	}

	type event struct {
		pos      token.Pos
		mu       string
		lock     bool
		deferred bool
	}
	var events []event
	// Pre-order guarantees a DeferStmt is seen before its CallExpr
	// child, so the deferred set is populated by the time the call is
	// visited as a plain node.
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
		deferred := deferredCalls[call]
		sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
		if !ok {
			return true
		}
		// methodObjOf sees through embedding, so `s.Lock()` on a struct
		// embedding sync.Mutex counts too.
		fn := methodObjOf(p, sel)
		switch {
		case isSyncMethod(fn, "Lock", "RLock"):
			events = append(events, event{pos: call.Pos(), mu: exprString(sel.X), lock: true})
		case isSyncMethod(fn, "Unlock", "RUnlock"):
			events = append(events, event{pos: call.Pos(), mu: exprString(sel.X), deferred: deferred})
		}
		return true
	})
	sort.Slice(events, func(i, j int) bool { return events[i].pos < events[j].pos })

	open := map[string]token.Pos{}
	for _, e := range events {
		switch {
		case e.lock:
			if _, held := open[e.mu]; !held {
				open[e.mu] = e.pos
			}
		case e.deferred:
			// Deferred unlock: the mutex stays held to end-of-frame; leave
			// the region open.
		default:
			if start, held := open[e.mu]; held {
				rs = append(rs, lockRegion{mu: e.mu, start: start, end: e.pos})
				delete(open, e.mu)
			}
		}
	}
	for mu, start := range open {
		rs = append(rs, lockRegion{mu: mu, start: start, end: end})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].start < rs[j].start })
	return rs
}
