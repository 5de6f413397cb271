// Package analysis is a dependency-free miniature of the
// golang.org/x/tools/go/analysis framework: just enough Analyzer / Pass
// / Diagnostic surface for the hdkvet checkers in internal/lint/... to
// be written in the standard shape, plus a package loader built on
// `go list -export` and the standard library's gc export-data importer.
//
// The real x/tools module is deliberately NOT a dependency: the repo is
// zero-dependency end to end (go.mod has no require block), and the
// subset hdkvet needs — syntax + full type information for one package
// at a time, no cross-package facts — fits in a few hundred lines of
// stdlib. Analyzers written against this package port to x/tools
// mechanically (the field names match) if the repo ever takes the
// dependency.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// An Analyzer describes one invariant checker.
type Analyzer struct {
	// Name identifies the analyzer in findings and //hdkvet:ignore
	// directives. Lower-case, no spaces.
	Name string
	// Doc is the one-paragraph description of the invariant checked.
	Doc string
	// Run applies the analyzer to one package. It reports findings via
	// pass.Report and returns an error only for internal failures (an
	// error fails the whole hdkvet run, not just the package).
	Run func(*Pass) error
}

// A Pass presents one package to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File
	Pkg       *types.Package
	TypesInfo *types.Info
	// Report records one finding.
	Report func(Diagnostic)
}

// Reportf is the printf convenience over Report.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at one position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// A Finding is a resolved diagnostic: position rendered against the
// file set, tagged with the analyzer and package that produced it.
type Finding struct {
	Analyzer string
	Pkg      string // package import path
	Pos      token.Position
	Message  string
}

// String renders the finding the way hdkvet prints it.
func (f Finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.Pos.Filename, f.Pos.Line, f.Pos.Column, f.Message, f.Analyzer)
}
