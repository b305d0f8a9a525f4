package lint_test

import (
	"testing"

	"luxvis/internal/lint"
)

// BenchmarkLintRepo times a cold whole-module lint — load (module
// sources type-checked, the standard library read from export data),
// summaries and every analyzer — and checks that the repository has no
// error findings. Every iteration is cold: the engine keeps no state
// between runs.
func BenchmarkLintRepo(b *testing.B) {
	root, err := lint.FindModuleRoot(".")
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		pkgs, err := lint.LintModule(root, lint.All())
		if err != nil {
			b.Fatal(err)
		}
		for _, p := range pkgs {
			if lint.HasErrors(p.Findings) {
				b.Fatalf("%s has error findings: %v", p.Path, p.Findings)
			}
		}
	}
	b.ReportMetric(float64(b.Elapsed().Milliseconds())/float64(b.N), "cold-ms")
}
