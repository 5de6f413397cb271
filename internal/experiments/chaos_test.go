package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
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
	rep.Fprint(os.Stderr)
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
