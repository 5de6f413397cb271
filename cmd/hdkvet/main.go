// Command hdkvet is the repo's invariant checker: a multichecker over
// the analyzers in internal/lint/... that encode the correctness
// properties this codebase has already paid for once — decoded-size
// allocation bounds (decodebounds), no RPCs under mutexes
// (nonetunderlock), deterministic canonical-encode and coordinator
// paths (determinism), and const-declared telemetry metric names
// (meterednames).
//
// Usage (scripts/lint.sh and CI run exactly this):
//
//	hdkvet [packages]
//
// It has no flags: every analyzer runs over every matched package, and
// patterns default to ./... . Findings print one per line on stdout;
// the exit status is 2 when any finding remains, 1 when the packages
// fail to load or type-check, and 0 when clean.
//
// Test files are exempt: hdkvet guards production invariants, and test
// code must stay free to (for example) register throwaway metric names
// inline.
//
// Findings are suppressed at the use site with
//
//	//hdkvet:ignore <analyzer>[,<analyzer>] -- <reason>
//
// on the finding's line or the line above it (the reason is required).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/lint/analysis"
	"repro/internal/lint/decodebounds"
	"repro/internal/lint/determinism"
	"repro/internal/lint/meterednames"
	"repro/internal/lint/nonetunderlock"
)

// all registers every analyzer hdkvet ships.
var all = []*analysis.Analyzer{
	decodebounds.Analyzer,
	determinism.Analyzer,
	meterednames.Analyzer,
	nonetunderlock.Analyzer,
}

func main() {
	// hdkvet takes no flags; parsing only answers -h and keeps a stray
	// flag from exiting 2, the status reserved for findings.
	fs := flag.NewFlagSet("hdkvet", flag.ContinueOnError)
	fs.Usage = func() { fmt.Fprintln(fs.Output(), "usage: hdkvet [packages]") }
	if err := fs.Parse(os.Args[1:]); err == flag.ErrHelp {
		os.Exit(0)
	} else if err != nil {
		os.Exit(1)
	}
	os.Exit(run(fs.Args(), os.Stdout, os.Stderr))
}

// run checks the packages matching patterns and returns the exit
// status: 0 clean, 1 load failure, 2 findings.
func run(patterns []string, stdout, stderr io.Writer) int {
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load("", patterns)
	if err != nil {
		fmt.Fprintln(stderr, "hdkvet:", err)
		return 1
	}
	bad := 0
	for _, pkg := range pkgs {
		findings, err := analysis.RunPackage(pkg, all)
		if err != nil {
			fmt.Fprintln(stderr, "hdkvet:", err)
			return 1
		}
		for _, f := range findings {
			fmt.Fprintln(stdout, f)
		}
		bad += len(findings)
	}
	if bad > 0 {
		fmt.Fprintf(stderr, "hdkvet: %d finding(s)\n", bad)
		return 2
	}
	return 0
}
