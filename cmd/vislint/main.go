// Command vislint is luxvis's domain-aware static analysis gate. It
// type-checks the whole module into one shared universe with nothing
// but the standard library, computes per-function cross-package
// summaries, and runs the internal/lint analyzer suite — floateq,
// palette, mutexdiscipline, ctxcancel, locksafe, atomicmix, errsink,
// wireformat, ctxflow, detsource, goleak, lockorder,
// chanown — each of which protects one of the paper's invariants at
// build time (see DESIGN.md, "Static invariants"). It prints findings
// as file:line:col with severity and explanation, and exits 1 when any
// error-severity finding survives the //lint:allow directives.
//
// Usage:
//
//	go run ./cmd/vislint ./...
//	go run ./cmd/vislint -list
//	go run ./cmd/vislint -analyzers goleak,lockorder ./internal/stream
//	go run ./cmd/vislint -diff origin/main ./...  # PR-scoped reporting
//	go run ./cmd/vislint -format=sarif ./... > vislint.sarif
//	go run ./cmd/vislint -format=github ./...   # CI annotations
//
// Package arguments narrow reporting to the matching directories; the
// whole module is always loaded and analyzed (analysis needs full type
// information), so ./... and no arguments are equivalent.
//
// Every run is a full run: module packages are type-checked from
// source and the standard library is read from the gc export data that
// `go list -export` reports, so the go command must be on PATH (go run
// puts its own toolchain there). Exit status 2 covers load failures —
// an import with no export data, a type error in a module package —
// as well as usage errors.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"luxvis/internal/lint"
	"luxvis/internal/version"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("vislint", flag.ContinueOnError)
	fs.SetOutput(stderr)
	list := fs.Bool("list", false, "list the analyzers and exit")
	analyzerNames := fs.String("analyzers", "", "comma-separated analyzer subset (default: all; see -list)")
	diffRef := fs.String("diff", "", "report only findings on lines changed since this git ref (analysis still covers the whole module)")
	quiet := fs.Bool("q", false, "print only the summary line")
	format := fs.String("format", "text", "output format: text, github (Actions annotations) or sarif (SARIF 2.1.0)")
	showVer := fs.Bool("version", false, "print build version and exit")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: vislint [flags] [packages]\n\nFlags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *showVer {
		fmt.Fprintln(stdout, version.String())
		return 0
	}

	if *list {
		for _, a := range lint.All() {
			fmt.Fprintf(stdout, "%-16s %s\n", a.Name(), a.Doc())
		}
		return 0
	}

	switch *format {
	case "text", "github", "sarif":
	default:
		fmt.Fprintf(stderr, "vislint: unknown -format %q (want text, github or sarif)\n", *format)
		return 2
	}

	var names []string
	if *analyzerNames != "" {
		names = strings.Split(*analyzerNames, ",")
	}
	analyzers, err := lint.ByName(names...)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}

	cwd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(stderr, "vislint:", err)
		return 2
	}
	root, err := lint.FindModuleRoot(cwd)
	if err != nil {
		fmt.Fprintln(stderr, "vislint:", err)
		return 2
	}

	pkgs, err := lint.LintModule(root, analyzers)
	if err != nil {
		fmt.Fprintln(stderr, "vislint:", err)
		return 2
	}

	selected := filterPackages(pkgs, root, cwd, fs.Args())
	if len(selected) == 0 {
		// A pattern that matches nothing is a typo'd path, and silently
		// reporting "0 findings" on it would be a false green gate.
		fmt.Fprintf(stderr, "vislint: no packages match %v\n", fs.Args())
		return 2
	}

	var findings []lint.Finding
	for _, p := range selected {
		findings = append(findings, p.Findings...)
	}

	if *diffRef != "" {
		// Reporting narrows to the lines changed since the ref; the
		// analysis above still covered the whole module, so cross-file
		// consequences of the change are reported where they land.
		changed, err := lint.ChangedLines(root, *diffRef)
		if err != nil {
			fmt.Fprintln(stderr, "vislint:", err)
			return 2
		}
		findings = lint.FilterChanged(findings, root, changed)
	}

	errs := 0
	for _, f := range findings {
		if f.Severity == lint.Error {
			errs++
		}
	}

	switch *format {
	case "sarif":
		// The document goes to stdout; the human summary to stderr so
		// redirection captures clean SARIF.
		if err := lint.WriteSARIF(stdout, root, analyzers, findings); err != nil {
			fmt.Fprintln(stderr, "vislint:", err)
			return 2
		}
		fmt.Fprintf(stderr, "vislint: %s\n", summary(len(selected), len(findings), errs))
	case "github":
		if err := lint.WriteGitHub(stdout, root, findings); err != nil {
			fmt.Fprintln(stderr, "vislint:", err)
			return 2
		}
		fmt.Fprintf(stdout, "vislint: %s\n", summary(len(selected), len(findings), errs))
	default:
		if !*quiet {
			for _, f := range findings {
				f.Pos.Filename = relPath(root, f.Pos.Filename)
				fmt.Fprintln(stdout, f)
			}
		}
		fmt.Fprintf(stdout, "vislint: %s\n", summary(len(selected), len(findings), errs))
	}
	if errs > 0 {
		return 1
	}
	return 0
}

// summary renders the one-line run report.
func summary(pkgs, findings, errs int) string {
	return fmt.Sprintf("%d package(s), %d finding(s), %d error(s)", pkgs, findings, errs)
}

// filterPackages narrows the results to the requested patterns.
// "./..." (or no patterns) keeps everything; "./internal/sim" or
// "internal/sim" keeps that directory and, with a trailing "...", its
// subtree. Patterns resolve relative to cwd.
func filterPackages(pkgs []lint.PackageFindings, root, cwd string, patterns []string) []lint.PackageFindings {
	if len(patterns) == 0 {
		return pkgs
	}
	var keep []lint.PackageFindings
	for _, p := range pkgs {
		for _, pat := range patterns {
			if matchPattern(p.Dir, root, cwd, pat) {
				keep = append(keep, p)
				break
			}
		}
	}
	return keep
}

// matchPattern reports whether a package directory matches one CLI
// pattern.
func matchPattern(dir, root, cwd, pat string) bool {
	recursive := false
	if strings.HasSuffix(pat, "/...") {
		recursive = true
		pat = strings.TrimSuffix(pat, "/...")
	} else if pat == "..." {
		recursive, pat = true, "."
	}
	base := cwd
	if filepath.IsAbs(pat) {
		base = ""
	}
	target := filepath.Clean(filepath.Join(base, pat))
	if dir == target {
		return true
	}
	if recursive {
		rel, err := filepath.Rel(target, dir)
		return err == nil && rel != ".." && !strings.HasPrefix(rel, ".."+string(filepath.Separator))
	}
	return false
}

// relPath renders an absolute finding path relative to the module root
// for stable, clickable output.
func relPath(root, path string) string {
	rel, err := filepath.Rel(root, path)
	if err != nil || strings.HasPrefix(rel, "..") {
		return path
	}
	return rel
}
