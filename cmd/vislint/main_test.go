package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"luxvis/internal/lint"
)

// TestAnalyzerSelection: a bad -analyzers= value must fail loudly
// (exit 2, known names listed) before any analysis runs — silently
// running a partial or empty set is a false green gate. All cases here
// error during flag/selection handling, so no module load happens and
// the table stays fast.
func TestAnalyzerSelection(t *testing.T) {
	cases := []struct {
		name    string
		args    []string
		wantOut []string // substrings that must appear on stderr
	}{
		{
			name:    "unknown name",
			args:    []string{"-analyzers=nosuch"},
			wantOut: []string{`unknown analyzer "nosuch"`, "goleak", "lockorder", "chanown", "floateq"},
		},
		{
			name:    "typo among valid names",
			args:    []string{"-analyzers=goleak,lockordr"},
			wantOut: []string{`unknown analyzer "lockordr"`, "lockorder"},
		},
		{
			name:    "empty element from trailing comma",
			args:    []string{"-analyzers=goleak,"},
			wantOut: []string{`unknown analyzer ""`},
		},
		{
			name:    "superseded name points at successor",
			args:    []string{"-analyzers=nondet"},
			wantOut: []string{"superseded", "detsource"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var stdout, stderr strings.Builder
			if code := run(tc.args, &stdout, &stderr); code != 2 {
				t.Fatalf("run(%v) = %d; want 2\nstderr: %s", tc.args, code, stderr.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr = %q; missing %q", stderr.String(), want)
				}
			}
		})
	}

	// The error message's "known:" list tracks lint.All exactly, so a
	// future analyzer cannot be silently missing from the help text.
	var stdout, stderr strings.Builder
	run([]string{"-analyzers=nosuch"}, &stdout, &stderr)
	for _, name := range lint.Names() {
		if !strings.Contains(stderr.String(), name) {
			t.Errorf("unknown-analyzer message %q does not list %q", stderr.String(), name)
		}
	}
}

// writeModule lays out a throwaway module (its own go.mod) from a map
// of slash-separated relative paths to file contents, and makes it the
// working directory for the rest of the test, as vislint finds the
// module from its working directory.
func writeModule(t *testing.T, files map[string]string) {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { os.Chdir(wd) })
}

// TestLoadFailures: a module that cannot be loaded exits 2 and names
// what failed. A standard-library import with no export data fails in
// go list, naming the import path. A type error in a module package is
// reported by go/types against that package, which pins that export
// data is requested for non-module imports only: a go list over the
// module's own packages would fail on the compile error first.
func TestLoadFailures(t *testing.T) {
	cases := []struct {
		name    string
		files   map[string]string
		wantOut []string
		notOut  []string
	}{
		{
			name: "nonexistent standard-library import",
			files: map[string]string{
				"go.mod": "module example.com/badimport\n\ngo 1.22\n",
				"a/a.go": "package a\n\nimport _ \"nosuchstd/pkg\"\n",
			},
			wantOut: []string{"nosuchstd/pkg"},
		},
		{
			name: "type error in a module package",
			files: map[string]string{
				"go.mod":     "module example.com/typeerr\n\ngo 1.22\n",
				"ok/ok.go":   "package ok\n\nimport \"strings\"\n\nfunc Up(s string) string { return strings.ToUpper(s) }\n",
				"bad/bad.go": "package bad\n\nimport \"example.com/typeerr/ok\"\n\nfunc f() int { return ok.Up(\"x\") }\n",
			},
			wantOut: []string{"type-checking example.com/typeerr/bad"},
			notOut:  []string{"go list"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			writeModule(t, tc.files)
			var stdout, stderr strings.Builder
			if code := run([]string{"./..."}, &stdout, &stderr); code != 2 {
				t.Fatalf("run = %d; want 2\nstdout: %s\nstderr: %s", code, stdout.String(), stderr.String())
			}
			for _, want := range tc.wantOut {
				if !strings.Contains(stderr.String(), want) {
					t.Errorf("stderr = %q; missing %q", stderr.String(), want)
				}
			}
			for _, not := range tc.notOut {
				if strings.Contains(stderr.String(), not) {
					t.Errorf("stderr = %q; must not mention %q", stderr.String(), not)
				}
			}
		})
	}
}
