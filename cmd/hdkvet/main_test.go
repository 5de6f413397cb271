package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/lint/linttest"
)

// TestRunExitStatus pins the contract CI's lint job relies on: 0 when
// clean, 2 with the findings on stdout, 1 when the packages do not load.
func TestRunExitStatus(t *testing.T) {
	clean := t.TempDir()
	if err := os.MkdirAll(filepath.Join(clean, "src", "clean"), 0o755); err != nil {
		t.Fatal(err)
	}
	src := "package clean\n\nfunc Sum(a, b int) int { return a + b }\n"
	if err := os.WriteFile(filepath.Join(clean, "src", "clean", "clean.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	fixtures := filepath.Join("..", "..", "internal", "lint", "decodebounds", "testdata")

	for _, tc := range []struct {
		name, gopath, pattern string
		want                  int
		stdout                string // substring every output line must contain; "" = no output
	}{
		{"clean", clean, "clean", 0, ""},
		{"findings", fixtures, "a", 2, "(decodebounds)"},
		{"load failure", clean, "nosuchpkg", 1, ""},
	} {
		t.Run(tc.name, func(t *testing.T) {
			linttest.Workspace(t, tc.gopath)
			var stdout, stderr bytes.Buffer
			if got := run([]string{tc.pattern}, &stdout, &stderr); got != tc.want {
				t.Fatalf("exit status %d, want %d; stdout:\n%s\nstderr:\n%s", got, tc.want, &stdout, &stderr)
			}
			out := strings.TrimSpace(stdout.String())
			if tc.stdout == "" {
				if out != "" {
					t.Fatalf("want no findings, got:\n%s", out)
				}
				return
			}
			for _, line := range strings.Split(out, "\n") {
				if !strings.Contains(line, tc.stdout) {
					t.Errorf("finding %q lacks %q", line, tc.stdout)
				}
			}
		})
	}
}
