package lint

import "go/ast"

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
	var out []Finding
	for _, fn := range m.Funcs(p) {
		fd := m.Decl(fn)
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			risk, ev := a.spawnFacts(p, m, gs)
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
func (a GoLeak) spawnFacts(p *Package, m *Module, gs *ast.GoStmt) (risk, ev *Reach) {
	var d FuncSummary
	var calls []CallEdge
	if fl, ok := ast.Unparen(gs.Call.Fun).(*ast.FuncLit); ok {
		ops := classifyBlocking(p, m.closedScope[p], fl.Body)
		d.LeakRisk, d.TermEvidence = ops.risk, ops.evidence
		calls = staticCalls(p, fl.Body, m.declares)
	} else if callee := p.StaticCallee(gs.Call); m.declares(callee) {
		calls = []CallEdge{{Callee: callee, Pos: gs.Pos()}}
	}
	for _, e := range calls {
		d.foldCall(p, e, m.Summary(e.Callee), nil)
	}
	return d.LeakRisk, d.TermEvidence
}
