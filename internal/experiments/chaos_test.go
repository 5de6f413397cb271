package experiments

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// runChaosE2E boots a real durable hdknode cluster with a deliberately
// small -compact-bytes (so the waves' op-log growth forces generation
// rollovers mid-chaos) and runs the chaos scenario against it. It is the
// only driver of the chaos and soak scenarios: scripts/chaos-replay.sh
// runs this test too. CHAOS_REPLAY replays a run: its value is a
// schedule seed, or the path of a schedule artifact fired verbatim
// (chaosSchedule). With CHAOS_ARTIFACT_DIR set (CI), the daemons'
// per-node logs tee there live as <prefix>-logs/node<i>.log (one
// directory per fleet, so the chaos and soak runs sharing the artifact
// directory never append to one file), their data directories live
// there as <prefix>-data, and the report is written there as
// <prefix>-report.json; a failing run also leaves the schedule that
// fired as <prefix>-schedule.json and keeps the data directories.
func runChaosE2E(t *testing.T, opts ChaosOpts, compactBytes int, prefix string) *ChaosReport {
	t.Helper()
	sched, err := chaosSchedule(opts, os.Getenv("CHAOS_REPLAY"))
	if err != nil {
		t.Fatalf("CHAOS_REPLAY: %v", err)
	}
	bin := hdknodeBin(t)

	artDir := os.Getenv("CHAOS_ARTIFACT_DIR")
	dataRoot := filepath.Join(artDir, prefix+"-data")
	logDir := ""
	if artDir == "" {
		dataRoot = filepath.Join(t.TempDir(), "data")
	} else {
		logDir = filepath.Join(artDir, prefix+"-logs")
		if err := os.MkdirAll(logDir, 0o755); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() {
			if !t.Failed() {
				os.RemoveAll(dataRoot)
				return
			}
			if err := WriteJSON(filepath.Join(artDir, prefix+"-schedule.json"), sched); err != nil {
				t.Logf("write schedule artifact: %v", err)
			}
			t.Logf("node logs, data and %s-schedule.json kept in %s", prefix, artDir)
		})
	}

	h := &cluster.Harness{Bin: bin, Stderr: os.Stderr, DataRoot: dataRoot, LogDir: logDir}
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
	rep, err := Chaos(tr, h.Addrs(), h.Kill, restart, sched, opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report:\n%s", out)
	if artDir != "" {
		if err := os.WriteFile(filepath.Join(artDir, prefix+"-report.json"), append(out, '\n'), 0o644); err != nil {
			t.Errorf("write report artifact: %v", err)
		}
	}
	return rep
}

// chaosSchedule resolves the schedule a chaos or soak run fires. An
// empty replay generates it from opts at seed 1; otherwise replay is a
// seed to generate it from, or the path of a schedule artifact to fire
// verbatim. A schedule made for another fleet size is refused here,
// before any daemon is spawned.
func chaosSchedule(opts ChaosOpts, replay string) (FaultSchedule, error) {
	seed, err := uint64(1), error(nil)
	if replay != "" {
		seed, err = strconv.ParseUint(replay, 10, 64)
	}
	if err == nil {
		return GenerateSchedule(seed, opts.Nodes, opts.Schedule), nil
	}
	raw, err := os.ReadFile(replay)
	if err != nil {
		return FaultSchedule{}, fmt.Errorf("%q is neither a seed nor a readable schedule file: %w", replay, err)
	}
	var sched FaultSchedule
	if err := json.Unmarshal(raw, &sched); err != nil {
		return sched, fmt.Errorf("%s: %w", replay, err)
	}
	return sched, sched.validateFor(opts.Nodes)
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
	_, err := Chaos(nil, make([]string, opts.Nodes), nil, nil, sched, opts, nil)
	if err == nil || !strings.Contains(err.Error(), "schedule is for 7 nodes, the fleet has 5") {
		t.Fatalf("7-node replay against 5 daemons: err = %v, want a refusal naming both sizes", err)
	}
}

// TestChaosReplaySource pins the resolver behind CHAOS_REPLAY without
// starting a process: a seed generates GenerateSchedule's schedule, a
// committed artifact is fired exactly as written, an artifact made for
// another fleet size is refused by name, and a value that is neither a
// number nor a readable file is an error.
func TestChaosReplaySource(t *testing.T) {
	opts := DefaultChaosOpts()
	got, err := chaosSchedule(opts, "7")
	if err != nil || !reflect.DeepEqual(got, GenerateSchedule(7, opts.Nodes, opts.Schedule)) {
		t.Errorf("seed 7: err %v, schedule seed %d, want GenerateSchedule(7)", err, got.Seed)
	}
	if got, err := chaosSchedule(opts, ""); err != nil || !reflect.DeepEqual(got, GenerateSchedule(1, opts.Nodes, opts.Schedule)) {
		t.Errorf("no replay: err %v, schedule seed %d, want seed 1's schedule", err, got.Seed)
	}

	artifact := filepath.Join("testdata", "chaos-schedule.json")
	raw, err := os.ReadFile(artifact)
	if err != nil {
		t.Fatal(err)
	}
	var want FaultSchedule
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	got, err = chaosSchedule(opts, artifact)
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("%s: err %v, want the committed schedule verbatim", artifact, err)
	}
	if out, _ := json.MarshalIndent(got, "", "  "); string(append(out, '\n')) != string(raw) {
		t.Errorf("%s: the resolved schedule does not re-encode to the committed bytes", artifact)
	}

	want.Nodes = 7
	foreign, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "seven.json")
	if err := os.WriteFile(path, foreign, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := chaosSchedule(opts, path); err == nil || !strings.Contains(err.Error(), "schedule is for 7 nodes, the fleet has 5") {
		t.Errorf("7-node artifact: err = %v, want a refusal naming both sizes", err)
	}

	if _, err := chaosSchedule(opts, filepath.Join(t.TempDir(), "missing.json")); err == nil {
		t.Error("a value that is neither a seed nor a file was accepted")
	}
}
