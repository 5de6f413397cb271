// Command hdkbench reproduces the paper's evaluation: it runs the
// Section 5 sweep (growing peer network, the engine as the distributed
// single-term baseline vs as the HDK index at several DFmax values,
// centralized BM25 reference) and prints every table and figure series
// the paper reports. The avail experiment measures the replication
// subsystem instead: recall when 20 % of the nodes crash, at several
// replication factors, before and after churn repair.
//
// Usage:
//
//	hdkbench [-scale small|medium|paper] [-experiment all|table1|table2|fig2|...|fig8|avail]
//	         [-replicas R[,R...]] [-json PATH]
//
// -replicas applies to -experiment avail only; with any other experiment
// it is an error. The sweep's HDK engines keep one copy of each key.
//
// The small scale finishes in seconds, medium in minutes; paper runs the
// verbatim Table 2 parameters (hours in one process). Progress goes to
// stderr and the artifacts to stdout. -json additionally writes the
// machine-readable results (configuration, per-level RPC and probe
// counts, build/query wall-clock) to PATH. The deployment's serving and
// build performance is measured by bench/run.sh, and its chaos and soak
// scenarios are the TestTCPChaosE2E and TestTCPSoakE2E gates
// (scripts/chaos-replay.sh replays one), not here.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/experiments"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small, medium or paper")
	experiment := flag.String("experiment", "all", "artifact to print: all, table1, table2, fig2..fig8, avail")
	replicas := flag.String("replicas", "", "with -experiment avail: replication factors to compare, e.g. 1,2,3 (default 1,3)")
	jsonPath := flag.String("json", "", "also write machine-readable results to this path")
	flag.Parse()

	if err := run(*scaleName, *experiment, *replicas, *jsonPath); err != nil {
		fmt.Fprintln(os.Stderr, "hdkbench:", err)
		os.Exit(1)
	}
}

// parseReplicas parses a comma-separated replication-factor list.
func parseReplicas(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	var out []int
	for _, part := range strings.Split(s, ",") {
		r, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil || r < 1 {
			return nil, fmt.Errorf("bad replication factor %q", part)
		}
		out = append(out, r)
	}
	return out, nil
}

// sweepTables are the artifacts read off one Section 5 sweep ("all"
// prints every table plus the summary).
var sweepTables = map[string]func(*experiments.Results) *experiments.Table{
	"table1": experiments.Table1,
	"fig3":   experiments.Fig3,
	"fig4":   experiments.Fig4,
	"fig5":   experiments.Fig5,
	"fig6":   experiments.Fig6,
	"fig7":   experiments.Fig7,
}

func run(scaleName, experiment, replicas, jsonPath string) error {
	var scale experiments.Scale
	switch scaleName {
	case "small":
		scale = experiments.SmallScale()
	case "medium":
		scale = experiments.MediumScale()
	case "paper":
		scale = experiments.PaperScale()
	default:
		return fmt.Errorf("unknown scale %q", scaleName)
	}
	rlist, err := parseReplicas(replicas)
	if err != nil {
		return err
	}
	if len(rlist) > 0 && experiment != "avail" {
		return fmt.Errorf("-replicas applies to -experiment avail only")
	}
	progress := func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	}

	// The purely analytic artifacts need no sweep.
	analytic := map[string]func() *experiments.Table{
		"fig2":   experiments.Fig2,
		"fig8":   experiments.Fig8,
		"table2": func() *experiments.Table { return experiments.Table2(scale) },
	}
	if mk, ok := analytic[experiment]; ok {
		t := mk()
		t.Fprint(os.Stdout)
		if jsonPath != "" {
			return experiments.WriteJSON(jsonPath, t)
		}
		return nil
	}

	if experiment == "avail" {
		if len(rlist) == 0 {
			rlist = []int{1, 3}
		}
		rep, err := experiments.Availability(scale, rlist, progress)
		if err != nil {
			return err
		}
		rep.Fprint(os.Stdout)
		if jsonPath != "" {
			return experiments.WriteJSON(jsonPath, rep)
		}
		return nil
	}

	table, ok := sweepTables[experiment]
	if !ok && experiment != "all" {
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	res, err := experiments.Run(scale, progress)
	if err != nil {
		return err
	}
	if ok {
		table(res).Fprint(os.Stdout)
	} else {
		for _, t := range experiments.AllTables(res) {
			t.Fprint(os.Stdout)
		}
		res.WriteSummary(os.Stdout)
	}
	if jsonPath != "" {
		return experiments.WriteJSON(jsonPath, experiments.BenchJSON(res))
	}
	return nil
}
