// Command hdkbench reproduces the paper's evaluation: it runs the
// Section 5 sweep (growing peer network, the engine as the distributed
// single-term baseline vs as the HDK index at several DFmax values,
// centralized BM25 reference) and prints every table and figure series
// the paper reports. The avail experiment measures the replication
// subsystem instead: recall under node crashes at several replication
// factors, before and after churn repair.
//
// Usage:
//
//	hdkbench [-scale small|medium|paper] [-experiment all|table1|table2|fig2|...|fig8|avail]
//	         [-replicas R[,R...]] [-kill F] [-json PATH] [-quiet]
//	hdkbench -chaos|-soak [-seed N | -replay PATH] [-json PATH]
//
// A flag the chosen experiment would ignore is an error: -kill applies
// to avail only, and -replicas to neither fig2, fig8 nor table2 (they
// build no index).
//
// The small scale finishes in seconds, medium in minutes; paper runs the
// verbatim Table 2 parameters (hours in one process). -json additionally
// writes the machine-readable results (configuration, per-level RPC and
// probe counts, build/query wall-clock) to PATH. The deployment's
// serving and build performance is measured by bench/run.sh, not here.
//
// -chaos spawns its own 5-process durable cluster and fires a seeded
// fault schedule at it — SIGKILL + warm restart, incremental update
// waves, live admission resizes, replica repairs, pressure-driven
// compactions — under continuous query load, gating recall, error-
// freedom, bounded p99 and post-chaos bit-identical parity. The
// schedule is a pure function of -seed, so `-chaos -seed N` replays a
// CI failure exactly; -replay fires a serialized schedule artifact
// instead. -soak is the time-compressed durability variant: more waves
// against a smaller compaction threshold cycle every daemon through
// several snapshot generations, and the run ends with a rolling
// restart proved byte-identical by fingerprint census. Both print the
// report as JSON (the document -json writes) and exit nonzero unless
// every gate holds; a -replay schedule made for another fleet size is
// refused before any daemon starts.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/experiments"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

func main() {
	scaleName := flag.String("scale", "small", "experiment scale: small, medium or paper")
	experiment := flag.String("experiment", "all", "artifact to print: all, table1, table2, fig2..fig8, avail")
	replicas := flag.String("replicas", "", "replication factor; for -experiment avail a comma list to compare, e.g. 1,2,3 (default 1,3)")
	kill := flag.Float64("kill", 0.2, "fraction of nodes crashed by the avail experiment")
	jsonPath := flag.String("json", "", "also write machine-readable results to this path")
	chaos := flag.Bool("chaos", false, "run the chaos scenario against a self-spawned durable cluster (exits nonzero unless every gate holds)")
	soak := flag.Bool("soak", false, "run the time-compressed soak variant of the chaos scenario (generation rollovers + byte-identical restore)")
	seed := flag.Uint64("seed", 1, "with -chaos/-soak: fault-schedule seed (identical seeds replay identical schedules)")
	replay := flag.String("replay", "", "with -chaos/-soak: path to a serialized fault schedule (the CI failure artifact) to fire instead of generating one from -seed")
	quiet := flag.Bool("quiet", false, "suppress progress output")
	flag.Parse()
	setFlags := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { setFlags[f.Name] = true })

	if err := run(*scaleName, *experiment, *replicas, *jsonPath, *replay, *kill, *seed, *chaos, *soak, *quiet, setFlags); err != nil {
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

func run(scaleName, experiment, replicas, jsonPath, replay string, kill float64, seed uint64, chaos, soak, quiet bool, setFlags map[string]bool) error {
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

	progress := experiments.Progress(nil)
	if !quiet {
		progress = func(format string, args ...any) {
			fmt.Fprintf(os.Stderr, format+"\n", args...)
		}
	}
	if chaos || soak {
		// The chaos scenario spawns (and reaps) its own durable cluster;
		// reject flags that would suggest an external one applies.
		for _, name := range []string{"experiment", "kill", "replicas", "scale"} {
			if setFlags[name] {
				return fmt.Errorf("-%s does not apply to -chaos/-soak (self-contained scenario)", name)
			}
		}
		return runChaos(jsonPath, replay, seed, soak, progress)
	}
	if setFlags["seed"] || setFlags["replay"] {
		return fmt.Errorf("-seed and -replay apply to -chaos/-soak only")
	}
	if setFlags["kill"] && experiment != "avail" {
		return fmt.Errorf("-kill applies to -experiment avail only")
	}

	// The purely analytic artifacts need no sweep.
	analytic := map[string]func() *experiments.Table{
		"fig2":   experiments.Fig2,
		"fig8":   experiments.Fig8,
		"table2": func() *experiments.Table { return experiments.Table2(scale) },
	}
	if mk, ok := analytic[experiment]; ok {
		if setFlags["replicas"] {
			return fmt.Errorf("-replicas does not apply to -experiment %s (analytic: no index is built)", experiment)
		}
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
		rep, err := experiments.Availability(scale, kill, rlist, progress)
		if err != nil {
			return err
		}
		rep.Fprint(os.Stdout)
		if jsonPath != "" {
			return experiments.WriteJSON(jsonPath, rep)
		}
		return nil
	}

	if len(rlist) > 1 {
		return fmt.Errorf("sweep experiments take a single -replicas value (got %q)", replicas)
	}
	if len(rlist) == 1 {
		scale.Replicas = rlist[0]
	}
	res, err := experiments.Run(scale, progress)
	if err != nil {
		return err
	}

	switch experiment {
	case "all":
		for _, t := range experiments.AllTables(res) {
			t.Fprint(os.Stdout)
		}
		res.WriteSummary(os.Stdout)
	case "table1":
		experiments.Table1(res).Fprint(os.Stdout)
	case "fig3":
		experiments.Fig3(res).Fprint(os.Stdout)
	case "fig4":
		experiments.Fig4(res).Fprint(os.Stdout)
	case "fig5":
		experiments.Fig5(res).Fprint(os.Stdout)
	case "fig6":
		experiments.Fig6(res).Fprint(os.Stdout)
	case "fig7":
		experiments.Fig7(res).Fprint(os.Stdout)
	default:
		return fmt.Errorf("unknown experiment %q", experiment)
	}
	if jsonPath != "" {
		return experiments.WriteJSON(jsonPath, experiments.BenchJSON(res))
	}
	return nil
}

// runChaos spawns a durable 5-process cluster (small -compact-bytes so
// update waves force generation rollovers), fires the fault schedule —
// generated from -seed, or loaded verbatim from a -replay artifact —
// under continuous query load, and exits nonzero unless every gate
// holds. On failure the cluster's data directories, per-node logs and
// the serialized schedule are kept for inspection; on success they are
// removed.
func runChaos(jsonPath, replay string, seed uint64, soak bool, progress experiments.Progress) error {
	opts := experiments.DefaultChaosOpts()
	compactBytes := 64 << 10
	if soak {
		opts = experiments.DefaultSoakOpts()
		compactBytes = 32 << 10
	}
	opts.ScheduleSeed = seed
	if replay != "" {
		raw, err := os.ReadFile(replay)
		if err != nil {
			return err
		}
		var sched experiments.FaultSchedule
		if err := json.Unmarshal(raw, &sched); err != nil {
			return fmt.Errorf("replay %s: %w", replay, err)
		}
		if err := sched.Validate(); err != nil {
			return fmt.Errorf("replay %s: %w", replay, err)
		}
		if sched.Nodes != opts.Nodes {
			return fmt.Errorf("replay %s: schedule is for %d nodes, the fleet has %d", replay, sched.Nodes, opts.Nodes)
		}
		opts.Replay = &sched
	}

	bin := os.Getenv("HDKNODE_BIN")
	if bin == "" {
		dir, err := os.MkdirTemp("", "hdkbench-chaos-bin-")
		if err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if bin, err = cluster.BuildHDKNode(dir); err != nil {
			return err
		}
	}
	workDir, err := os.MkdirTemp("", "hdkbench-chaos-")
	if err != nil {
		return err
	}
	keep := false
	defer func() {
		if !keep {
			os.RemoveAll(workDir)
		}
	}()

	h := &cluster.Harness{
		Bin: bin, DataRoot: filepath.Join(workDir, "data"),
		Fsync: "always", LogDir: workDir,
	}
	if err := h.Start(opts.Nodes, opts.Replicas, "-compact-bytes", fmt.Sprint(compactBytes)); err != nil {
		return err
	}
	defer h.Stop()

	tr := transport.NewTCP()
	defer tr.Close()
	restart := func(i int) error {
		if err := h.Restart(i); err != nil {
			return err
		}
		return h.AwaitMembers(opts.Nodes)
	}
	rep, err := experiments.Chaos(tr, h.Addrs(), h.Kill, restart, opts, progress)
	if err != nil {
		keep = true
		fmt.Fprintf(os.Stderr, "hdkbench: node logs and data kept in %s\n", workDir)
		return err
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	fmt.Printf("%s\n", out)
	if jsonPath != "" {
		if err := experiments.WriteJSON(jsonPath, rep); err != nil {
			return err
		}
	}
	if failures := rep.Failures(); len(failures) > 0 {
		keep = true
		for _, f := range failures {
			fmt.Fprintf(os.Stderr, "hdkbench: gate failed: %s\n", f)
		}
		if err := experiments.WriteJSON(filepath.Join(workDir, "fault-schedule.json"), rep.Schedule); err != nil {
			fmt.Fprintf(os.Stderr, "hdkbench: write schedule artifact: %v\n", err)
		}
		fmt.Fprintf(os.Stderr, "hdkbench: node logs, data and fault-schedule.json kept in %s\n", workDir)
		return fmt.Errorf("chaos gates failed (see the gates and report above; replay with -seed %d or -replay %s)",
			rep.Schedule.Seed, filepath.Join(workDir, "fault-schedule.json"))
	}
	return nil
}
