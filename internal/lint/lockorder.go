package lint

import (
	"fmt"
	"sort"
	"strings"
)

// LockOrder builds the module-wide lock-acquisition-order graph and
// reports every acquisition site that completes a cycle in it. Nodes
// are named lock keys — a package-level mutex ("pkg.var") or a mutex
// field keyed by its owning type ("pkg.Type.field"), never a single
// instance — and an edge A→B is recorded wherever a frame acquires B
// (directly, or via a module call whose summary acquires) while a
// region holding A is still open. Two packages that each look fine in
// isolation can still deadlock together; that is exactly the case the
// module summaries exist for, so the graph is assembled from this
// package's edges plus every dependency's.
//
// A finding names both halves of the would-be deadlock: the forward
// witness (this site, with its cross-package call chain) and the
// reverse path already in the graph, rendered edge by edge with each
// edge's owning frame. `//lint:allow lockorder <reason>` at an
// acquisition site removes that edge from the graph — it stops every
// cycle through it, which is the right granularity for a documented
// ordering exception (e.g. "instances are tried in address order").
//
// The type-keyed approximation can report a self-consistent program
// that locks two *instances* of one type in a guaranteed order; that
// is what the allow directive is for. It cannot see locks acquired
// through dynamic calls, so absence of findings is evidence, not proof.
type LockOrder struct{}

// Name implements Analyzer.
func (LockOrder) Name() string { return "lockorder" }

// Doc implements Analyzer.
func (LockOrder) Doc() string {
	return "the module-wide lock-acquisition-order graph must be acyclic; a cycle is a latent deadlock reported with both witness chains"
}

// lockEdgeGroup aggregates every site that contributes the same
// from→to edge. The edge is live (part of the traversal graph) unless
// every contributing site is allowed.
type lockEdgeGroup struct {
	from, to         string
	fromDisp, toDisp string
	sites            []lockEdge
	live             bool
}

// Check implements Analyzer.
func (a LockOrder) Check(p *Package, m *Module) []Finding {
	own := m.lockEdges[p]
	if len(own) == 0 {
		return nil
	}
	all := append([]lockEdge(nil), own...)
	for _, dep := range m.depClosure(p) {
		all = append(all, m.lockEdges[dep]...)
	}

	// Group sites into edges, preserving first-appearance order so the
	// BFS below is deterministic without depending on map iteration.
	groups := make(map[[2]string]*lockEdgeGroup)
	var order [][2]string
	for _, e := range all {
		k := [2]string{e.from, e.to}
		g := groups[k]
		if g == nil {
			g = &lockEdgeGroup{from: e.from, to: e.to, fromDisp: e.fromDisp, toDisp: e.toDisp}
			groups[k] = g
			order = append(order, k)
		}
		g.sites = append(g.sites, e)
		if !e.allowed {
			g.live = true
		}
	}

	// Adjacency over live edges only: an allowed edge is out of the
	// graph entirely, so it stops every cycle routed through it.
	adj := make(map[string][][2]string)
	for _, k := range order {
		if groups[k].live {
			adj[groups[k].from] = append(adj[groups[k].from], k)
		}
	}

	var out []Finding
	seen := make(map[string]bool) // cycle node-set → already reported in this package
	for _, site := range own {
		// This site asserts from→to. A cycle exists iff to can already
		// reach from through the live graph (excluding this very edge
		// when it is allowed — an allowed site still gets checked so a
		// completed cycle reaches the engine, which then suppresses the
		// finding and marks the directive used).
		path := a.reversePath(adj, groups, site.to, site.from)
		if path == nil {
			continue
		}
		nodeSet := map[string]bool{site.from: true, site.to: true}
		for _, k := range path {
			nodeSet[k[0]] = true
			nodeSet[k[1]] = true
		}
		nodes := make([]string, 0, len(nodeSet))
		for n := range nodeSet {
			nodes = append(nodes, n)
		}
		sort.Strings(nodes)
		key := strings.Join(nodes, "→")
		if seen[key] && !site.allowed {
			continue
		}
		seen[key] = true

		fromDisp, toDisp := site.fromDisp, site.toDisp
		via := ""
		if site.via != "" {
			via = fmt.Sprintf(" (via %s)", site.via)
		}
		out = append(out, finding(p, a.Name(), site.pos, Error,
			"%s.%s acquires %s while holding %s%s, but the module already orders %s before %s: %s; two goroutines taking the two orders deadlock — pick one order or annotate the proven exception with //lint:allow lockorder",
			site.pkgName, site.frame, toDisp, fromDisp, via,
			toDisp, fromDisp, a.renderPath(groups, site.to, path)))
	}
	sortFindings(out)
	return out
}

// reversePath finds a live path from start to target, returned as the
// ordered edge keys walked, or nil when target is unreachable. BFS with
// insertion-ordered adjacency keeps it deterministic and yields a
// shortest witness, which reads best in the finding.
func (LockOrder) reversePath(adj map[string][][2]string, groups map[[2]string]*lockEdgeGroup, start, target string) [][2]string {
	type hop struct {
		node string
		path [][2]string
	}
	visited := map[string]bool{start: true}
	queue := []hop{{node: start}}
	for len(queue) > 0 {
		h := queue[0]
		queue = queue[1:]
		for _, k := range adj[h.node] {
			g := groups[k]
			path := append(append([][2]string(nil), h.path...), k)
			if g.to == target {
				return path
			}
			if !visited[g.to] {
				visited[g.to] = true
				queue = append(queue, hop{node: g.to, path: path})
			}
		}
	}
	return nil
}

// renderPath prints the reverse witness edge by edge, each with the
// frame that owns its earliest live site.
func (LockOrder) renderPath(groups map[[2]string]*lockEdgeGroup, start string, path [][2]string) string {
	var parts []string
	for _, k := range path {
		g := groups[k]
		rep := g.sites[0]
		for _, s := range g.sites {
			if !s.allowed {
				rep = s
				break
			}
		}
		via := ""
		if rep.via != "" {
			via = fmt.Sprintf(" via %s", rep.via)
		}
		parts = append(parts, fmt.Sprintf("%s → %s in %s.%s%s",
			g.fromDisp, g.toDisp, rep.pkgName, rep.frame, via))
	}
	return strings.Join(parts, "; ")
}
