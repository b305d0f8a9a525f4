package lint

import (
	"go/ast"
	"go/types"
)

// GoLeak proves, at build time, the goroutine-lifecycle half of the
// ASYNC runtime's contract: every `go` statement in the
// concurrency-bearing packages (internal/{stream,serve,rt,sim,exp})
// must have an exit path the analyzer can see being reachable from
// Close/cancel. A goroutine whose frame can block forever or loop
// without bound — a channel op with no close in scope, a select with
// no default, a sync.Cond wait, a bare for{} — and shows no
// termination evidence anywhere on its exit paths is reported, with a
// witness chain naming the blocking operation.
//
// Termination evidence is one of: a receive (or select case, or range)
// on ctx.Done() or on a channel some module frame closes, a ctx.Err()
// poll, or a sync.WaitGroup join. A bounded body — no blocking op, no
// unconditional loop — needs no evidence. Blockingness and evidence
// both propagate bottom-up through the module summaries (LeakRisk /
// TermEvidence), so a goroutine body that just calls robotLoop is
// judged by what robotLoop can reach two packages down.
//
// Approximations, failing toward silence: dynamic spawns (`go fv()` on
// a function value) are skipped, and evidence anywhere in the frame
// pardons the whole frame — the analyzer proves "an exit path exists",
// not "every path exits". The analyzer cannot see evidence hidden
// behind a dynamic call (a stored closure invoked through a variable);
// hoist the ctx check into the loop, or annotate with
// //lint:allow goleak and the reason the body is bounded.
type GoLeak struct{}

// Name implements Analyzer.
func (GoLeak) Name() string { return "goleak" }

// Doc implements Analyzer.
func (GoLeak) Doc() string {
	return "every goroutine in the concurrency-bearing packages needs a provable exit path (ctx.Done/Err, module-closed channel, WaitGroup join, or a bounded body)"
}

// Check implements Analyzer.
func (a GoLeak) Check(p *Package, m *Module) []Finding {
	if !p.PathHasSuffix(concScope...) {
		return nil
	}
	closed := m.closedScope[p]
	g := p.CallGraph()
	var out []Finding
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			risk, ev := a.spawnFacts(p, m, closed, gs)
			if risk != nil && ev == nil {
				chain := ""
				if c := risk.Chain(); c != "" {
					chain = " (call chain " + c + ")"
				}
				out = append(out, finding(p, a.Name(), gs.Pos(), Error,
					"goroutine started by %s %s%s and no exit path shows termination evidence (ctx.Done/ctx.Err, a receive on a module-closed channel, or a WaitGroup join); it can outlive Close/cancel — thread a context through, close the channel it blocks on, or annotate why it is bounded",
					fd.Name.Name, risk.Desc, chain))
			}
			return true
		})
	}
	sortFindings(out)
	return out
}

// spawnFacts computes the spawned frame's leak risk and termination
// evidence: for a `go func(){...}` literal, its direct ops plus the
// summaries of every module function it calls; for a named `go f(...)`,
// f's summary. Dynamic spawns return no facts (skipped).
func (a GoLeak) spawnFacts(p *Package, m *Module, closed map[types.Object][]chanSite, gs *ast.GoStmt) (risk, ev *Reach) {
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		r, e := collectLeakOps(p, closed, fl.Body)
		if r != nil {
			risk = &Reach{Desc: r.desc, Pos: r.pos}
		}
		if e != nil {
			ev = &Reach{Desc: e.desc, Pos: e.pos}
		}
		for _, edge := range staticCalls(p, fl.Body, m.declares) {
			s := m.Summary(edge.Callee)
			if s == nil {
				continue
			}
			name := crossName(p, edge.Callee)
			if s.LeakRisk != nil && (risk == nil || edge.Pos < risk.Pos) {
				risk = &Reach{
					Desc: s.LeakRisk.Desc, Pos: edge.Pos,
					Via: append([]string{name}, s.LeakRisk.Via...),
				}
			}
			if s.TermEvidence != nil && ev == nil {
				ev = &Reach{
					Desc: s.TermEvidence.Desc, Pos: edge.Pos,
					Via: append([]string{name}, s.TermEvidence.Via...),
				}
			}
		}
		return risk, ev
	}
	callee := p.StaticCallee(gs.Call)
	if callee == nil {
		return nil, nil
	}
	s := m.Summary(callee)
	if s == nil {
		return nil, nil
	}
	name := crossName(p, callee)
	if s.LeakRisk != nil {
		risk = &Reach{
			Desc: s.LeakRisk.Desc, Pos: gs.Pos(),
			Via: append([]string{name}, s.LeakRisk.Via...),
		}
	}
	if s.TermEvidence != nil {
		ev = &Reach{
			Desc: s.TermEvidence.Desc, Pos: gs.Pos(),
			Via: append([]string{name}, s.TermEvidence.Via...),
		}
	}
	return risk, ev
}
