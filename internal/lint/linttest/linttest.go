// Package linttest runs an hdkvet analyzer over GOPATH-style fixture
// trees and checks its diagnostics against `// want "regexp"` comments,
// mirroring golang.org/x/tools/go/analysis/analysistest on top of the
// stdlib-only framework in internal/lint/analysis.
//
// Fixtures live under <testdata>/src/<pkg>/*.go and load through
// analysis.Load — the loader hdkvet itself runs — with the testdata
// directory as a GOPATH workspace. A fixture package may import sibling
// fixture packages by their directory path (so a checker that matches
// real types by package-path tail — "transport", "telemetry" — can be
// exercised against a miniature of the real API) and anything from the
// standard library.
//
// Every diagnostic must land on a line carrying a matching want
// comment, and every want comment must be matched — extra and missing
// findings both fail the test.
package linttest

import (
	"go/ast"
	"go/token"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"repro/internal/lint/analysis"
)

// Run loads each fixture package, applies the analyzer, and asserts
// the findings equal the fixtures' want comments.
func Run(t *testing.T, testdata string, a *analysis.Analyzer, pkgpaths ...string) {
	t.Helper()
	pkgs, err := analysis.Load(Workspace(t, testdata), pkgpaths)
	if err != nil {
		t.Fatalf("loading fixtures %q: %v", pkgpaths, err)
	}
	for _, pkg := range pkgs {
		findings, err := analysis.RunPackage(pkg, []*analysis.Analyzer{a})
		if err != nil {
			t.Fatalf("running %s on fixture %q: %v", a.Name, pkg.Path, err)
		}
		checkWants(t, pkg.Fset, pkg.Files, findings)
	}
}

// Workspace points the go command at gopath as a GOPATH-mode workspace
// for the rest of the test, so `go list` resolves the packages under
// <gopath>/src by their directory paths, and returns gopath made
// absolute.
func Workspace(t *testing.T, gopath string) string {
	t.Helper()
	abs, err := filepath.Abs(gopath)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv("GO111MODULE", "off")
	t.Setenv("GOPATH", abs)
	t.Setenv("GOFLAGS", "")
	return abs
}

// want is one expectation: a regexp on a specific file line.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

func checkWants(t *testing.T, fset *token.FileSet, files []*ast.File, findings []analysis.Finding) {
	t.Helper()
	var wants []*want
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := fset.Position(c.Pos())
				rest := strings.TrimSpace(m[1])
				for rest != "" {
					q, err := strconv.QuotedPrefix(rest)
					if err != nil {
						t.Errorf("%s:%d: malformed want comment %q", pos.Filename, pos.Line, rest)
						break
					}
					pat, _ := strconv.Unquote(q)
					re, err := regexp.Compile(pat)
					if err != nil {
						t.Errorf("%s:%d: bad want regexp %q: %v", pos.Filename, pos.Line, pat, err)
						break
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
					rest = strings.TrimSpace(rest[len(q):])
				}
			}
		}
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.hit && w.file == f.Pos.Filename && w.line == f.Pos.Line && w.re.MatchString(f.Message) {
				w.hit = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected finding matching %q, got none", w.file, w.line, w.re)
		}
	}
}
