package lint

import (
	"go/token"
	"strings"
)

// allowPrefix is the directive comment form:
//
//	//lint:allow <analyzer> <reason>
//
// A directive suppresses findings of <analyzer> (or every analyzer,
// with the name "all") on its own line and on the line immediately
// below — so it works both as a trailing comment and as a line of its
// own above the exception. The reason is mandatory: exceptions without
// a written justification are exactly the rot the gate exists to stop.
//
// A directive must also earn its keep: one that suppresses nothing in a
// run of its analyzer is stale and is itself reported as an error (see
// directiveSet.stale). Fixed code sheds its annotations in the same
// change, so the set of written-down exceptions never overstates the
// set of real ones.
const allowPrefix = "//lint:allow"

// parseAllowDirective classifies one comment's text against the
// directive grammar. Three outcomes:
//
//   - not a directive:      analyzer == "" and problem == ""
//   - well-formed:          analyzer != "" (a member of known)
//   - malformed directive:  problem != "" (human-readable defect)
//
// known maps the acceptable analyzer names (including "all"). The
// function is total over arbitrary comment text — FuzzDirectiveParse
// holds it to that.
func parseAllowDirective(text string, known map[string]bool) (analyzer, problem string) {
	if !strings.HasPrefix(text, allowPrefix) {
		return "", ""
	}
	rest := strings.TrimPrefix(text, allowPrefix)
	if rest != "" && !strings.ContainsAny(rest[:1], " \t") {
		// "//lint:allowx..." is a different word, not a directive.
		return "", ""
	}
	fields := strings.Fields(rest)
	switch {
	case len(fields) == 0:
		return "", "malformed " + allowPrefix + ": missing analyzer name and reason"
	case !known[fields[0]]:
		return "", allowPrefix + " names unknown analyzer \"" + fields[0] + "\""
	case len(fields) < 2:
		return "", allowPrefix + " " + fields[0] + ": a reason is required"
	}
	return fields[0], ""
}

// allowDirective is one well-formed //lint:allow comment.
type allowDirective struct {
	analyzer string
	pos      token.Pos
	used     bool
}

// directiveSet indexes allow-directives by file and line and tracks
// which of them actually suppressed a finding.
type directiveSet struct {
	byLine map[string]map[int][]*allowDirective // filename -> line -> directives
	order  []*allowDirective                    // source order, for stale reporting
}

func newDirectiveSet() *directiveSet {
	return &directiveSet{byLine: make(map[string]map[int][]*allowDirective)}
}

func (d *directiveSet) add(file string, line int, dir *allowDirective) {
	m := d.byLine[file]
	if m == nil {
		m = make(map[int][]*allowDirective)
		d.byLine[file] = m
	}
	m[line] = append(m[line], dir)
	d.order = append(d.order, dir)
}

// allows reports whether finding f is covered by a directive on its
// line or the line above it, marking the matching directive as used.
func (d *directiveSet) allows(f Finding) bool {
	m := d.byLine[f.Pos.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{f.Pos.Line, f.Pos.Line - 1} {
		for _, dir := range m[line] {
			if dir.analyzer == f.Analyzer || dir.analyzer == "all" {
				dir.used = true
				return true
			}
		}
	}
	return false
}

// covers reports whether a directive for analyzer (or "all") covers the
// line of pos, without marking anything used. The module-graph summary
// pass uses it to stop taint propagation at annotated operations;
// finding suppression goes through allows, which tracks usage.
func (d *directiveSet) covers(p *Package, pos token.Pos, analyzer string) bool {
	position := p.Fset.Position(pos)
	m := d.byLine[position.Filename]
	if m == nil {
		return false
	}
	for _, line := range []int{position.Line, position.Line - 1} {
		for _, dir := range m[line] {
			if dir.analyzer == analyzer || dir.analyzer == "all" {
				return true
			}
		}
	}
	return false
}

// stale reports every directive that suppressed nothing even though its
// analyzer was part of the run (active). A directive for an analyzer
// outside the run set is left alone — `vislint -analyzers floateq` must not
// condemn the nondet annotations it never exercised — and an "all"
// directive is only auditable on a full-suite run: on a partial run the
// findings it exists to suppress may belong to a deselected analyzer,
// so reporting it stale would condemn a live exception.
func (d *directiveSet) stale(p *Package, active map[string]bool) []Finding {
	full := true
	for _, a := range All() {
		if !active[a.Name()] {
			full = false
			break
		}
	}
	var out []Finding
	for _, dir := range d.order {
		if dir.used {
			continue
		}
		if dir.analyzer == "all" {
			if !full {
				continue
			}
		} else if !active[dir.analyzer] {
			continue
		}
		out = append(out, finding(p, "directive", dir.pos, Error,
			"%s %s suppresses no findings; stale directives are errors — remove it",
			allowPrefix, dir.analyzer))
	}
	return out
}

// collectDirectives scans a package's comments for //lint:allow
// directives. Malformed directives (unknown analyzer, missing reason)
// are returned as error findings so they cannot silently suppress
// anything.
func collectDirectives(p *Package) (*directiveSet, []Finding) {
	known := map[string]bool{"all": true}
	for _, a := range All() {
		known[a.Name()] = true
	}
	set := newDirectiveSet()
	var bad []Finding
	for _, f := range p.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				analyzer, problem := parseAllowDirective(c.Text, known)
				switch {
				case problem != "":
					bad = append(bad, finding(p, "directive", c.Pos(), Error, "%s", problem))
				case analyzer != "":
					pos := p.Fset.Position(c.Pos())
					set.add(pos.Filename, pos.Line, &allowDirective{analyzer: analyzer, pos: c.Pos()})
				}
			}
		}
	}
	return set, bad
}
