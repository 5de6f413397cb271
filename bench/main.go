// Command bench is the repository's benchmark: it boots real hdknode
// processes on fixed loopback ports, builds the index through the
// thin-client path, checks the daemons' answers against an in-process
// reference engine, drives one named workload with closed-loop clients
// and prints every metric by name and unit, the last line as the JSON
// object BENCHMARK.json's contract asks for. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"

	"repro/internal/transport/cluster"
)

func main() {
	var (
		name     = flag.String("workload", "", "workload to run (default: each of them in turn)")
		seed     = flag.Int64("seed", 1, "derives the corpus, the query pools, the Zipf draws and the client offsets")
		seconds  = flag.Int("seconds", 10, "length of the measured stretch")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: per-layer metrics, half the stretch traced")
		basePort = flag.Int("base-port", 19400, "first of the daemons' loopback ports")
		outDir   = flag.String("out", "out", "directory for daemon logs, data dirs, trace files and the hdknode binary")
		record   = flag.String("record", "", "append each result to this file, for -compare")
		compare  = flag.Bool("compare", false, "compare two -record files, given as arguments, under the bounds of -spec")
		spec     = flag.String("spec", filepath.Join("..", "BENCHMARK.json"), "the benchmark's contract file")
		layers   = flag.Bool("layers", false, "run the per-layer Go benchmarks and print ns/op and allocs/op")
	)
	flag.Parse()
	fail := func(err error) {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
	switch {
	case *compare:
		if flag.NArg() != 2 {
			fail(fmt.Errorf("-compare takes two -record files"))
		}
		worse, err := compareFiles(os.Stdout, *spec, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fail(err)
		}
		if worse {
			os.Exit(1)
		}
		return
	case *layers:
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fail(err)
		}
		if err := runLayerBenchmarks(os.Stdout, *outDir); err != nil {
			fail(err)
		}
		return
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fail(fmt.Errorf("need -seconds >= 1 and -trace 0 or 1"))
	}
	run := workloads
	if *name != "" {
		w, ok := workloadByName(*name)
		if !ok {
			fail(fmt.Errorf("unknown workload %q", *name))
		}
		run = []workload{w}
	}

	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fail(err)
	}
	bin, err := cluster.BuildHDKNode(*outDir)
	if err != nil {
		fail(err)
	}
	f := &fleet{bin: bin, outDir: *outDir, basePort: *basePort}
	// Every exit path reaps the children and removes the data dirs: the
	// normal ones through runWorkload's deferred stop, a signal here.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		f.shutdown()
		os.Exit(1)
	}()

	o := options{
		seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir,
		logf: func(format string, a ...any) { fmt.Fprintf(os.Stderr, format+"\n", a...) },
	}
	for _, w := range run {
		res, err := runWorkload(f, w, o)
		if err != nil {
			fail(fmt.Errorf("%s: %w", w.name, err))
		}
		shown := endToEnd
		if o.trace {
			shown = perLayer
		}
		line, err := res.print(os.Stdout, shown)
		if err != nil {
			fail(err)
		}
		if *record != "" {
			if err := appendRecord(*record, res, shown); err != nil {
				fail(err)
			}
		}
		fmt.Println(line)
	}
}

// print writes the human-readable report and returns the contract's
// result line, which the caller prints last.
func (r *result) print(w *os.File, shown []metric) (string, error) {
	fmt.Fprintf(w, "== %s  seed %d  %d attempted, %d failed\n", r.workload, r.seed, r.attempted, r.failed)
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{true, r.attempted, r.failed, map[string]value{}}
	for _, m := range shown {
		v, ok := r.metrics[m.name]
		if !ok {
			return "", fmt.Errorf("%s: metric %s was not measured", r.workload, m.name)
		}
		fmt.Fprintf(w, "%-32s %14.4f %s\n", m.name, v, m.unit)
		out.Metrics[m.name] = value{v, m.unit}
	}
	for _, l := range r.info {
		fmt.Fprintln(w, l)
	}
	line, err := json.Marshal(out)
	return string(line), err
}
