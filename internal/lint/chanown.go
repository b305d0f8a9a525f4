package lint

import (
	"go/ast"
	"go/types"
)

// ChanOwn enforces the single-owner channel discipline the runtime's
// packages rely on: exactly one frame owns a channel's lifecycle, and
// only the owner closes it. Three rules, each a panic class in Go:
//
//  1. A send in one frame on a channel that a *different* frame closes
//     is a send/close race — `send on closed channel` the moment the
//     scheduler orders them badly. Same-frame send+close is fine
//     (program order serializes them) and stays silent.
//  2. Two distinct frames closing the same channel is a latent double
//     close, reported at each of this package's close sites.
//  3. A function that closes a channel but returns it send-capable
//     (`chan T`, not `<-chan T`) hands callers a write capability that
//     outlives the owner's close — the compiler would have caught any
//     post-close send if the return type were receive-only.
//
// Frames, not functions: a func literal that runs inline (argument to
// sort.Slice etc.) belongs to its enclosing frame; a `go` statement or
// a stored closure starts a new one. Channel identity is the declared
// object (a struct field or package var shared module-wide, or a
// local), so the analysis is cross-package exactly where channels are:
// stream's hub fields are closed in stream but sent to from serve.
// When the race is real but externally serialized (a mutex-guarded
// closed flag), annotate the send with //lint:allow chanown and the
// proof.
type ChanOwn struct{}

// Name implements Analyzer.
func (ChanOwn) Name() string { return "chanown" }

// Doc implements Analyzer.
func (ChanOwn) Doc() string {
	return "channels need one owning frame: no send racing another frame's close, no double close, no send-capable escape past the closer"
}

// Check implements Analyzer.
func (a ChanOwn) Check(p *Package, m *Module) []Finding {
	if !p.PathHasSuffix(concScope...) {
		return nil
	}
	facts := m.chans[p]
	closed := m.closedScope[p]
	var out []Finding

	for _, obj := range facts.order {
		// Rule 1: this package's sends vs any other frame's close.
		for _, send := range facts.sends[obj] {
			for _, cl := range closed[obj] {
				if cl.pkg == send.pkg && cl.frame == send.frame {
					continue
				}
				out = append(out, finding(p, a.Name(), send.pos, Error,
					"%s sends on %s, which %s.%s closes; a send racing that close panics — give the channel one owning frame, or annotate the proven happens-before with //lint:allow chanown",
					send.frame, send.expr, cl.pkg, cl.frame))
				break
			}
		}
		// Rule 2: closes from more than one distinct frame.
		for _, cl := range facts.closes[obj] {
			for _, other := range closed[obj] {
				if other.pkg == cl.pkg && other.frame == cl.frame {
					continue
				}
				out = append(out, finding(p, a.Name(), cl.pos, Error,
					"%s closes %s, which %s.%s also closes; the second close panics — give the channel a single owning frame",
					cl.frame, cl.expr, other.pkg, other.frame))
				break
			}
		}
	}

	out = append(out, a.escapes(p, facts)...)
	sortFindings(out)
	return out
}

// escapes reports functions that close a locally declared channel yet
// return it with send capability intact (rule 3).
func (a ChanOwn) escapes(p *Package, facts *chanFacts) []Finding {
	g := p.CallGraph()
	var out []Finding
	for _, fn := range g.Funcs() {
		fd := g.Decl(fn)
		sig := fn.Type().(*types.Signature)
		if sig.Results().Len() == 0 {
			continue
		}
		// Locals this function body closes (any frame inside it).
		closedLocals := make(map[types.Object]bool)
		for _, obj := range facts.order {
			v, ok := obj.(*types.Var)
			if !ok || v.IsField() {
				continue
			}
			if v.Pos() < fd.Pos() || v.Pos() >= fd.End() {
				continue
			}
			for _, cl := range facts.closes[obj] {
				if cl.pos >= fd.Pos() && cl.pos < fd.End() {
					closedLocals[obj] = true
					break
				}
			}
		}
		if len(closedLocals) == 0 {
			continue
		}
		ast.Inspect(fd.Body, func(n ast.Node) bool {
			ret, ok := n.(*ast.ReturnStmt)
			if !ok {
				return true
			}
			for i, res := range ret.Results {
				id, ok := ast.Unparen(res).(*ast.Ident)
				if !ok || !closedLocals[p.Info.Uses[id]] {
					continue
				}
				if i >= sig.Results().Len() {
					continue
				}
				ch, ok := sig.Results().At(i).Type().Underlying().(*types.Chan)
				if !ok || ch.Dir() != types.SendRecv {
					continue
				}
				out = append(out, finding(p, a.Name(), res.Pos(), Error,
					"%s returns %s send-capable but also closes it; any caller can then send on a closed channel — return a receive-only (<-chan) view",
					fd.Name.Name, id.Name))
			}
			return true
		})
	}
	return out
}
