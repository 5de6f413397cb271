package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"
)

// checkPkg type-checks dependency-free source strings, one file each
// (p0.go, p1.go, ...), into a Package.
func checkPkg(t *testing.T, srcs ...string) *Package {
	t.Helper()
	fset := token.NewFileSet()
	pkg := &Package{Path: "p", Fset: fset, Info: newInfo()}
	for i, src := range srcs {
		f, err := parser.ParseFile(fset, fmt.Sprintf("p%d.go", i), src, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		pkg.Files = append(pkg.Files, f)
	}
	conf := types.Config{Error: func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) }}
	pkg.Pkg, _ = conf.Check("p", fset, pkg.Files, pkg.Info)
	return pkg
}

// makeReporter flags every make call — a minimal analyzer to exercise
// the driver's directive and ordering behavior.
var makeReporter = &Analyzer{
	Name: "makerep",
	Doc:  "test analyzer: reports every make call",
	Run: func(pass *Pass) error {
		InspectAll(pass, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "make" {
					pass.Reportf(call.Pos(), "make call")
				}
			}
			return true
		})
		return nil
	},
}

func TestRunPackageReportsAndSorts(t *testing.T) {
	pkg := checkPkg(t, `package p

func b() []int { return make([]int, 2) }

func a() []int { return make([]int, 1) }
`)
	got, err := RunPackage(pkg, []*Analyzer{makeReporter})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d findings, want 2: %v", len(got), got)
	}
	if got[0].Pos.Line >= got[1].Pos.Line {
		t.Errorf("findings not sorted by line: %v", got)
	}
	if got[0].Analyzer != "makerep" || got[0].Pkg != "p" {
		t.Errorf("finding metadata wrong: %+v", got[0])
	}
}

func TestInlineDirectiveSuppresses(t *testing.T) {
	pkg := checkPkg(t, `package p

func a() []int {
	return make([]int, 1) //hdkvet:ignore makerep -- exercised by the driver test
}

//hdkvet:ignore makerep -- standing directive covers the next line
func b() []int { return make([]int, 2) }

func c() []int {
	return make([]int, 3) //hdkvet:ignore otherthing -- wrong analyzer, does not suppress
}
`, `package p

func d() []int {
	return make([]int, 4) // same line as a's directive, other file: not suppressed
}
`)
	got, err := RunPackage(pkg, []*Analyzer{makeReporter})
	if err != nil {
		t.Fatal(err)
	}
	var at []string
	for _, f := range got {
		at = append(at, fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line))
	}
	if want := "p0.go:11 p1.go:4"; strings.Join(at, " ") != want {
		t.Fatalf("got findings at %v, want exactly %s (c, and d in the other file)", at, want)
	}
}

func TestMalformedDirectiveIsAFinding(t *testing.T) {
	for _, directive := range []string{
		"//hdkvet:ignore makerep",
		"//hdkvet:ignoremakerep -- the marker must end at whitespace",
		"//hdkvet:ignore -- a reason for nothing",
		"//hdkvet:ignore",
	} {
		pkg := checkPkg(t, "package p\n\n"+directive+"\nfunc a() []int { return make([]int, 1) }\n")
		got, err := RunPackage(pkg, []*Analyzer{makeReporter})
		if err != nil {
			t.Fatal(err)
		}
		// The directive must NOT suppress, and must itself be reported.
		var sawMalformed, sawMake bool
		for _, f := range got {
			if strings.Contains(f.Message, "malformed directive") {
				sawMalformed = true
			}
			if strings.Contains(f.Message, "make call") {
				sawMake = true
			}
		}
		if !sawMalformed || !sawMake {
			t.Errorf("%s: got %v, want both the malformed-directive finding and the unsuppressed make finding", directive, got)
		}
	}
}

func TestRunPackageRefusesTypeErrors(t *testing.T) {
	pkg := checkPkg(t, `package p

func a() { undefinedIdentifier() }
`)
	if _, err := RunPackage(pkg, []*Analyzer{makeReporter}); err == nil {
		t.Fatal("want an error for a package that does not type-check")
	}
}

func TestLoadAgainstRealModule(t *testing.T) {
	// Loading this very package through the production loader proves
	// the go list + export-data import pipeline end to end.
	pkgs, err := Load("", []string{"repro/internal/lint/analysis"})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "repro/internal/lint/analysis" {
		t.Fatalf("got %v, want just this package", pkgs)
	}
	if len(pkgs[0].TypeErrors) > 0 {
		t.Fatalf("type errors: %v", pkgs[0].TypeErrors)
	}
	if pkgs[0].Pkg.Name() != "analysis" {
		t.Errorf("package name = %q", pkgs[0].Pkg.Name())
	}
}
