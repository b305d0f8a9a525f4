package lint

import (
	"go/ast"
	"go/token"
	"go/types"
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

// Check implements Analyzer. The summary pass (module.go)
// already did the reachability work — each function's LockUnsafe fact is
// closed over intra-package chains and cross-package call sites — so
// this pass only intersects each frame's locked regions with its own
// unsafe ops and with calls into summarized-unsafe functions.
func (a LockSafe) Check(p *Package, m *Module) []Finding {
	if !importsPkg(p, "sync") {
		return nil
	}
	byReceiver := func(c lockCall) string { return c.mu }
	var out []Finding
	for _, fn := range m.Funcs(p) {
		fd := m.Decl(fn)
		for i, frame := range framesOf(fd) {
			name := frameLabel(fd, i)
			regions := lockRegions(frameLocks(p, frame), frame.End(), byReceiver)
			if i == 0 && strings.HasSuffix(fd.Name.Name, "Locked") {
				// The caller holds the lock: the whole frame is a region.
				entry := lockRegion{lockCall: lockCall{pos: frame.Pos(), mu: "the caller's lock"}, end: frame.End()}
				regions = append([]lockRegion{entry}, regions...)
			}
			if len(regions) == 0 {
				continue
			}
			// held names the first region covering pos, or "".
			held := func(pos token.Pos) string {
				if rs := covering(regions, pos); len(rs) > 0 {
					return rs[0].mu
				}
				return ""
			}
			for _, op := range classifyBlocking(p, m.closedScope[p], frame).unsafe {
				if mu := held(op.pos); mu != "" {
					out = append(out, finding(p, a.Name(), op.pos, Error,
						"%s %s while holding %s; callbacks and blocking operations must run outside the lock",
						name, op.desc, mu))
				}
			}
			for _, e := range staticCalls(p, frame, m.declares) {
				s := m.Summary(e.Callee)
				mu := held(e.Pos)
				if s.LockUnsafe == nil || mu == "" {
					continue
				}
				w := s.LockUnsafe.through(p, e.Callee, e.Pos)
				out = append(out, finding(p, a.Name(), e.Pos, Error,
					"%s calls %s while holding %s, and %s %s (call chain %s); release the lock first",
					name, w.Via[0], mu, w.last(), w.Desc, w.Chain()))
			}
		}
	}
	sortFindings(out)
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
