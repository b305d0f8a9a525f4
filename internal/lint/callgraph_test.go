package lint_test

import (
	"go/types"
	"testing"

	"luxvis/internal/lint"
)

const callgraphFixture = `package fixture

type T struct{ n int }

func a() { b(); c() }
func b() { c() }
func c() {}

func loop1() { loop2() }
func loop2() { loop1() }

func (t *T) m() { t.n++ }
func callsMethod(t *T) { t.m() }

var fn = func() {}

func dynamic() { fn() }

func stored() {
	f := func() { a() }
	_ = f
}

func goLaunch() { go a() }
`

func checkedFixture(t *testing.T, src string) *lint.Package {
	t.Helper()
	pkg, err := lint.CheckSource("luxvis/internal/fixture", "fixture.go", src, nil)
	if err != nil {
		t.Fatalf("CheckSource: %v", err)
	}
	return pkg
}

func fnByName(t *testing.T, m *lint.Module, p *lint.Package, name string) *types.Func {
	t.Helper()
	for _, fn := range m.Funcs(p) {
		if fn.Name() == name {
			return fn
		}
	}
	t.Fatalf("function %q not in call graph", name)
	return nil
}

func calleeNames(m *lint.Module, fn *types.Func) []string {
	var out []string
	for _, e := range m.Callees(fn) {
		out = append(out, e.Callee.Name())
	}
	return out
}

func TestCallGraphEdges(t *testing.T) {
	pkg := checkedFixture(t, callgraphFixture)
	m := lint.NewModule([]*lint.Package{pkg})

	if got := len(m.Funcs(pkg)); got != 10 {
		t.Fatalf("Funcs() = %d functions; want 10", got)
	}

	cases := map[string][]string{
		"a":           {"b", "c"},
		"b":           {"c"},
		"c":           nil,
		"callsMethod": {"m"},
		"dynamic":     nil, // call through a function value: no static edge
		"stored":      nil, // call inside a stored literal: a different frame
		"goLaunch":    nil, // go launch runs outside the caller
	}
	for name, want := range cases {
		got := calleeNames(m, fnByName(t, m, pkg, name))
		if len(got) != len(want) {
			t.Errorf("Callees(%s) = %v; want %v", name, got, want)
			continue
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("Callees(%s) = %v; want %v", name, got, want)
				break
			}
		}
	}
}

func TestCallGraphPropagate(t *testing.T) {
	pkg := checkedFixture(t, callgraphFixture)
	m := lint.NewModule([]*lint.Package{pkg})
	c := fnByName(t, m, pkg, "c")

	direct := map[*types.Func]lint.Reach{
		c: {Desc: "does the forbidden thing", Pos: m.Decl(c).Pos()},
	}
	reach := m.Propagate(pkg, direct)

	if r := reach[fnByName(t, m, pkg, "a")]; r == nil {
		t.Error("a does not reach c")
	} else if chain := r.Chain(); chain != "b → c" {
		// a's first edge is b, and b reaches c; the witness follows the
		// first chain in declaration/call order.
		t.Errorf("a's witness chain = %q; want %q", chain, "b → c")
	}
	if r := reach[fnByName(t, m, pkg, "b")]; r == nil || r.Chain() != "c" {
		t.Errorf("b's reach = %+v; want chain c", r)
	}
	if r := reach[c]; r == nil || r.Chain() != "" {
		t.Errorf("c's reach = %+v; want direct (empty chain)", r)
	}
	for _, name := range []string{"loop1", "loop2", "dynamic", "stored", "goLaunch"} {
		if r := reach[fnByName(t, m, pkg, name)]; r != nil {
			t.Errorf("%s unexpectedly reaches c: %+v", name, r)
		}
	}
}
