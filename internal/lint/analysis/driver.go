package analysis

import (
	"fmt"
	"go/ast"
	"sort"
	"strings"
)

// IgnoreDirective is the magic comment that suppresses a finding at its
// use site: `//hdkvet:ignore <analyzer>[,<analyzer>...] -- <reason>`.
// The directive applies to findings on its own line and on the line
// directly below it (so it works both trailing a statement and standing
// alone above one). The reason after ` -- ` is mandatory: a suppression
// with no justification is itself a finding.
const IgnoreDirective = "hdkvet:ignore"

// RunPackage applies the analyzers to one loaded package and returns
// the surviving findings: diagnostics minus those suppressed by a
// well-formed inline directive, plus a finding for every malformed
// directive. Results are sorted by position.
func RunPackage(pkg *Package, analyzers []*Analyzer) ([]Finding, error) {
	if len(pkg.TypeErrors) > 0 {
		return nil, fmt.Errorf("%s does not type-check: %v", pkg.Path, pkg.TypeErrors[0])
	}
	ignores, findings := collectDirectives(pkg)
	for _, a := range analyzers {
		pass := &Pass{
			Analyzer:  a,
			Fset:      pkg.Fset,
			Files:     pkg.Files,
			Pkg:       pkg.Pkg,
			TypesInfo: pkg.Info,
		}
		name := a.Name
		pass.Report = func(d Diagnostic) {
			pos := pkg.Fset.Position(d.Pos)
			if ignores[ignoreKey{name, pos.Filename, pos.Line}] {
				return
			}
			findings = append(findings, Finding{Analyzer: name, Pkg: pkg.Path, Pos: pos, Message: d.Message})
		}
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s on %s: %v", a.Name, pkg.Path, err)
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		return a.Analyzer < b.Analyzer
	})
	return findings, nil
}

// ignoreKey is one suppressed (analyzer, file, line) position.
type ignoreKey struct {
	analyzer, file string
	line           int
}

// collectDirectives scans the package's comments for ignore directives.
// Malformed directives (a marker glued to more text, no analyzer list,
// or no ` -- reason`) are returned as findings so they cannot silently
// suppress anything.
func collectDirectives(pkg *Package) (map[ignoreKey]bool, []Finding) {
	ignores := map[ignoreKey]bool{}
	var bad []Finding
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				// Go directive convention: the marker must follow "//"
				// immediately. Prose that merely mentions the directive
				// ("suppress with //hdkvet:ignore") is not a directive.
				body, isLine := strings.CutPrefix(c.Text, "//")
				rest, isDirective := strings.CutPrefix(body, IgnoreDirective)
				if !isLine || !isDirective {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				names, reason, ok := strings.Cut(rest, "--")
				names = strings.TrimSpace(names)
				glued := rest != "" && rest[0] != ' ' && rest[0] != '\t'
				if glued || !ok || names == "" || strings.TrimSpace(reason) == "" {
					bad = append(bad, Finding{
						Analyzer: "hdkvet",
						Pkg:      pkg.Path,
						Pos:      pos,
						Message:  "malformed directive: want //hdkvet:ignore <analyzer>[,<analyzer>] -- <reason>",
					})
					continue
				}
				for _, name := range strings.Split(names, ",") {
					name = strings.TrimSpace(name)
					ignores[ignoreKey{name, pos.Filename, pos.Line}] = true
					ignores[ignoreKey{name, pos.Filename, pos.Line + 1}] = true
				}
			}
		}
	}
	return ignores, bad
}

// InspectAll walks every file in the pass with ast.Inspect.
func InspectAll(pass *Pass, fn func(ast.Node) bool) {
	for _, f := range pass.Files {
		ast.Inspect(f, fn)
	}
}
