package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// runChaosE2E boots a real durable hdknode cluster with a deliberately
// small -compact-bytes (so the waves' op-log growth forces generation
// rollovers mid-chaos) and runs the chaos scenario against it. With
// CHAOS_ARTIFACT_DIR set (CI), the daemons' per-node logs tee there
// live, and a failing run leaves the serialized fault schedule and the
// full report next to them — seed + action list, enough to replay the
// exact run locally with `hdkbench -chaos -seed N`. CHAOS_SEED
// overrides the schedule seed for such replays under `go test`.
func runChaosE2E(t *testing.T, opts ChaosOpts, compactBytes int, prefix string) *ChaosReport {
	t.Helper()
	bin := hdknodeBin(t)
	if seed := os.Getenv("CHAOS_SEED"); seed != "" {
		n, err := strconv.ParseUint(seed, 10, 64)
		if err != nil {
			t.Fatalf("CHAOS_SEED %q: %v", seed, err)
		}
		opts.ScheduleSeed = n
	}

	artDir := os.Getenv("CHAOS_ARTIFACT_DIR")
	if artDir != "" {
		if err := os.MkdirAll(artDir, 0o755); err != nil {
			t.Fatal(err)
		}
	}
	var rep *ChaosReport
	sched := GenerateSchedule(opts.ScheduleSeed, opts.Nodes, opts.Schedule)
	t.Cleanup(func() {
		if !t.Failed() || artDir == "" {
			return
		}
		// The replay artifact: schedule first (always available), the
		// full report when the run got far enough to produce one.
		if err := WriteJSON(filepath.Join(artDir, prefix+"-schedule.json"), sched); err != nil {
			t.Logf("write schedule artifact: %v", err)
		}
		if rep != nil {
			if err := WriteJSON(filepath.Join(artDir, prefix+"-report.json"), rep); err != nil {
				t.Logf("write report artifact: %v", err)
			}
		}
	})

	h := &cluster.Harness{
		Bin: bin, Stderr: os.Stderr,
		DataRoot: filepath.Join(t.TempDir(), "data"), Fsync: "always",
		LogDir: artDir,
	}
	if err := h.Start(opts.Nodes, opts.Replicas, "-compact-bytes", fmt.Sprint(compactBytes)); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	tr := transport.NewTCP()
	defer tr.Close()
	restart := func(i int) error {
		if err := h.Restart(i); err != nil {
			return err
		}
		// Readiness re-poll: the next action must not race the rejoin.
		return h.AwaitMembers(opts.Nodes)
	}
	var err error
	if rep, err = Chaos(tr, h.Addrs(), h.Kill, restart, opts, t.Logf); err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %+v", *rep)
	return rep
}

// TestTCPChaosE2E is the CI chaos gate: a 5-process durable cluster
// under a continuous closed-loop query load while the seeded fault
// schedule fires >= 3 SIGKILL/warm-restart cycles, >= 2 incremental
// update waves, a replica repair sweep and live admission resizes, with
// pressure-driven compactions rolling generations underneath. Recall@K
// must stay >= 0.99 against the live-updated in-process reference the
// whole time, no query may fail for any reason other than admission
// shedding or a schedule-induced outage, the merged p99 stays bounded,
// and the healed cluster must answer every (query, daemon) pair
// bit-identically with full R-way coverage.
func TestTCPChaosE2E(t *testing.T) {
	rep := runChaosE2E(t, DefaultChaosOpts(), 64<<10, "chaos")
	if rep.Kills < 3 || rep.Waves < 2 {
		t.Errorf("schedule ran %d kills / %d waves, want >= 3 / >= 2", rep.Kills, rep.Waves)
	}
	failOn(t, rep.Failures())
}

// TestTCPSoakE2E is the time-compressed soak gate: the same compound
// chaos with six update waves against a half-sized -compact-bytes, so
// every daemon crosses >= 3 snapshot/compaction generation boundaries
// under load; then a full fingerprint census, a rolling SIGKILL + warm
// restart of every daemon, and a second census + parity sweep proving
// the restored cluster is byte-identical to the one that went down.
func TestTCPSoakE2E(t *testing.T) {
	opts := DefaultSoakOpts()
	// SOAK_SCALE multiplies the schedule budgets — the nightly job runs
	// the uncompressed variant (more cycles of everything) this way
	// while the per-PR gate stays time-compressed.
	if s := os.Getenv("SOAK_SCALE"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 1 {
			t.Fatalf("SOAK_SCALE %q: want a positive integer", s)
		}
		opts.Schedule.Kills *= n
		opts.Schedule.Waves *= n
		opts.Schedule.Repairs *= n
		opts.Schedule.Resizes *= n
		opts.MinNodeRollovers *= n
	}
	rep := runChaosE2E(t, opts, 32<<10, "soak")
	failOn(t, rep.Failures())
}

// TestChaosReportFailures pins the chaos and soak gates' predicate: a
// report that passes every gate has no failures, breaking any one gate's
// field yields exactly one message, and the soak gates apply only in
// soak mode.
func TestChaosReportFailures(t *testing.T) {
	good := ChaosReport{
		Nodes: 5, Replicas: 3, Soak: true,
		Issued: 900, WindowedQueries: 900, MeanRecall: 1, MinRecall: 1, RecallFloor: 0.99,
		P99Nanos: 1e6, P99BoundNanos: 2e9,
		GenerationRollovers: 15, RolloverFloor: 3, MinNodeRollovers: 3, NodeRolloverFloor: 3,
	}
	if f := good.Failures(); len(f) != 0 || !good.Clean() {
		t.Fatalf("passing report judged dirty: %q", f)
	}
	cases := map[string]func(*ChaosReport){
		"nothing issued":     func(r *ChaosReport) { r.Issued = 0 },
		"query errors":       func(r *ChaosReport) { r.Errors, r.FirstError = 1, "boom" },
		"nothing scored":     func(r *ChaosReport) { r.WindowedQueries = 0 },
		"recall under floor": func(r *ChaosReport) { r.MeanRecall = 0.98 },
		"p99 over bound":     func(r *ChaosReport) { r.P99Nanos = r.P99BoundNanos + 1 },
		"too few rollovers":  func(r *ChaosReport) { r.GenerationRollovers = 2 },
		"final parity":       func(r *ChaosReport) { r.FinalMismatches = 1 },
		"under-replicated":   func(r *ChaosReport) { r.UnderReplicated = 1 },
		"node rollovers":     func(r *ChaosReport) { r.MinNodeRollovers = 2 },
		"restore drift":      func(r *ChaosReport) { r.RestoreFingerprintMismatches = 1 },
		"restore parity":     func(r *ChaosReport) { r.RestoreParityMismatches = 1 },
	}
	for name, mutate := range cases {
		rep := good
		mutate(&rep)
		if f := rep.Failures(); len(f) != 1 || rep.Clean() {
			t.Errorf("%s: %d failures %q, want exactly one", name, len(f), f)
		}
	}
	chaos := good
	chaos.Soak, chaos.MinNodeRollovers, chaos.RestoreFingerprintMismatches, chaos.RestoreParityMismatches = false, 0, 1, 1
	if f := chaos.Failures(); len(f) != 0 {
		t.Errorf("soak gates judged a chaos report: %q", f)
	}
}

// TestChaosRefusesForeignFleetSize: replaying a schedule made for 7
// daemons against the 5-process fleet is refused by name before the
// fixture dials anything — no cluster, transport or hooks are touched.
func TestChaosRefusesForeignFleetSize(t *testing.T) {
	opts := DefaultChaosOpts()
	sched := GenerateSchedule(1, 7, opts.Schedule)
	opts.Replay = &sched
	_, err := Chaos(nil, make([]string, opts.Nodes), nil, nil, opts, nil)
	if err == nil || !strings.Contains(err.Error(), "schedule is for 7 nodes, the fleet has 5") {
		t.Fatalf("7-node replay against 5 daemons: err = %v, want a refusal naming both sizes", err)
	}
}
