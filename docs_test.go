package repro

// Documentation lint: ARCHITECTURE.md is a maintained map of the whole
// repository, so these tests fail the build when it goes stale — a new
// internal package must be added to the map, and the links from
// README.md and doc.go must survive edits. They also enforce that every
// internal package keeps a godoc package comment and has a caller, and
// that neither the map nor README.md nor doc.go names a path that is
// gone.

import (
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// internalPackages returns the import-path-relative names of every
// directory under internal/ that contains Go code.
func internalPackages(t *testing.T) []string {
	t.Helper()
	var pkgs []string
	err := filepath.WalkDir("internal", func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		// testdata subtrees are invisible to the Go toolchain (lint
		// fixtures, fuzz corpora) — not part of the package map.
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		ents, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		for _, e := range ents {
			if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
				pkgs = append(pkgs, filepath.ToSlash(path))
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("found only %d internal packages — lint walking broken?", len(pkgs))
	}
	return pkgs
}

// TestArchitectureDocCoversEveryPackage requires ARCHITECTURE.md to
// name every internal package.
func TestArchitectureDocCoversEveryPackage(t *testing.T) {
	arch, err := os.ReadFile("ARCHITECTURE.md")
	if err != nil {
		t.Fatalf("ARCHITECTURE.md missing: %v", err)
	}
	text := string(arch)
	for _, pkg := range internalPackages(t) {
		if !strings.Contains(text, pkg) {
			t.Errorf("ARCHITECTURE.md does not mention %s — update the package map", pkg)
		}
	}
}

// TestArchitectureDocIsLinked requires README.md and doc.go to point at
// ARCHITECTURE.md.
func TestArchitectureDocIsLinked(t *testing.T) {
	for _, f := range []string{"README.md", "doc.go"} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(data), "ARCHITECTURE.md") {
			t.Errorf("%s does not link ARCHITECTURE.md", f)
		}
	}
}

// TestEveryInternalPackageHasGodoc requires a package-level doc comment
// ("// Package <name> ...") somewhere in each internal package.
func TestEveryInternalPackageHasGodoc(t *testing.T) {
	for _, pkg := range internalPackages(t) {
		ents, err := os.ReadDir(pkg)
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		for _, e := range ents {
			name := e.Name()
			if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(pkg, name))
			if err != nil {
				t.Fatal(err)
			}
			if strings.Contains(string(data), "\n// Package ") || strings.HasPrefix(string(data), "// Package ") {
				documented = true
				break
			}
		}
		if !documented {
			t.Errorf("%s has no package doc comment", pkg)
		}
	}
}

// TestArchitectureDocNamesOnlyLivePaths requires every internal/…,
// cmd/… and examples/… path that ARCHITECTURE.md, README.md or doc.go
// names to exist, so the docs cannot go on describing a deleted package,
// file or program.
func TestArchitectureDocNamesOnlyLivePaths(t *testing.T) {
	path := regexp.MustCompile(`\b(internal|cmd|examples)/[a-z0-9_/]+(\.go)?`)
	for _, doc := range []string{"ARCHITECTURE.md", "README.md", "doc.go"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatalf("%s missing: %v", doc, err)
		}
		for _, p := range path.FindAllString(string(text), -1) {
			if _, err := os.Stat(strings.TrimSuffix(p, "/")); err != nil {
				t.Errorf("%s names %s, which does not exist", doc, p)
			}
		}
	}
}

// TestEveryInternalPackageIsImported requires every internal package to
// have a caller: a non-test file outside the package imports it, or the
// tests of at least two other packages do (shared test support such as
// the fuzz-corpus and lint-test helpers). A package only its own tests
// use is dead code. The bench/ module is not part of this module and
// does not count.
func TestEveryInternalPackageIsImported(t *testing.T) {
	mod, err := os.ReadFile("go.mod")
	if err != nil {
		t.Fatal(err)
	}
	modPath := strings.TrimPrefix(strings.SplitN(string(mod), "\n", 2)[0], "module ")
	prodUsers := map[string]map[string]bool{} // import path -> importing dirs
	testUsers := map[string]map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		users := prodUsers
		if strings.HasSuffix(path, "_test.go") {
			users = testUsers
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if users[p] == nil {
				users[p] = map[string]bool{}
			}
			users[p][dir] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	others := func(users map[string]bool, self string) int {
		n := len(users)
		if users[self] {
			n--
		}
		return n
	}
	for _, pkg := range internalPackages(t) {
		imp := modPath + "/" + pkg
		if others(prodUsers[imp], pkg) == 0 && others(testUsers[imp], pkg) < 2 {
			t.Errorf("%s is imported by no other package's code and by the tests of fewer than two — delete it or give it a caller", pkg)
		}
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
