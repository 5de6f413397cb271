package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// TestTCPIngestResumeE2E boots a real 5-process durable hdknode cluster
// (every daemon runs with -data -fsync always) and proves the streamed
// build's resume contract under a crash: the thin client's upload to
// one daemon is stopped after exactly killAfterChunks acked chunks, the
// daemon is SIGKILLed mid-session, restarted from its data directory,
// and the SAME ingest session resumed — which must skip precisely the
// acked prefix, re-ship ZERO of it, and yield a final
// daemon-coordinated index whose ranked answers are bit-identical to a
// never-interrupted in-process build. This is the CI kill-mid-build
// gate; skipped under -short because it compiles a binary and forks
// children. Set RESTART_DATA_ROOT to pin the daemons' data directories
// somewhere collectable (CI uploads them on failure).
func TestTCPIngestResumeE2E(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns child processes; skipped in -short mode")
	}
	bin := os.Getenv("HDKNODE_BIN") // CI prebuilds the daemon once
	if bin == "" {
		var err error
		if bin, err = cluster.BuildHDKNode(t.TempDir()); err != nil {
			t.Fatal(err)
		}
	}
	dataRoot := os.Getenv("RESTART_DATA_ROOT")
	if dataRoot == "" {
		dataRoot = filepath.Join(t.TempDir(), "data")
	}
	opts := DefaultTCPClusterOpts()

	h := &cluster.Harness{Bin: bin, Stderr: os.Stderr, DataRoot: dataRoot, Fsync: "always"}
	if err := h.Start(opts.Nodes, opts.Replicas); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	tr := transport.NewTCP()
	defer tr.Close()
	rep, err := TCPIngestResume(tr, h.Addrs(), h.Kill, h.Restart, opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rep.Fprint(os.Stderr)

	if rep.ResumeSkipped != rep.KillAfterChunks {
		t.Errorf("resumed session skipped %d chunks, want the %d the killed daemon had durably acked",
			rep.ResumeSkipped, rep.KillAfterChunks)
	}
	if rep.ResumeResent != 0 {
		t.Errorf("resume re-shipped %d acked chunks, want exactly 0", rep.ResumeResent)
	}
	if rep.VictimChunks <= rep.KillAfterChunks {
		t.Errorf("victim shard packs into %d chunks — the interruption at %d was not mid-upload",
			rep.VictimChunks, rep.KillAfterChunks)
	}
	if rep.Mismatches != 0 {
		t.Errorf("%d/%d post-build queries diverged — the resumed build is not bit-identical to the uninterrupted one",
			rep.Mismatches, rep.Queries)
	}
	if err := checkBuildRoundSeries(tr, h.Addrs()); err != nil {
		t.Error(err)
	}
}

// checkBuildRoundSeries scrapes every daemon after a daemon-coordinated
// build and holds the round breakdown to exact accounting: each daemon
// ran each of the SMax rounds once, so each of the three per-round
// histograms (generation, insert pass, wait for the barrier to learn of
// the finished pass) must carry exactly one observation per daemon per
// round — a series that went missing or double-counts fails the scenario.
func checkBuildRoundSeries(tr transport.Transport, addrs []string) error {
	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs})
	if err != nil {
		return err
	}
	cfg, err := c.Meta(addrs[0])
	if err != nil {
		return err
	}
	snaps := make([]telemetry.Snapshot, len(addrs))
	for i, addr := range addrs {
		var err error
		if snaps[i], err = cluster.FetchMetrics(tr, addr); err != nil {
			return fmt.Errorf("experiments: scrape %s: %w", addr, err)
		}
	}
	for _, name := range []string{
		"hdk_build_generate_nanoseconds",
		"hdk_build_insert_nanoseconds",
		"hdk_build_barrier_wait_nanoseconds",
	} {
		for round := 1; round <= cfg.SMax; round++ {
			var n uint64
			for _, snap := range snaps {
				hv, _ := snap.Histogram(name, telemetry.L("round", strconv.Itoa(round)))
				n += hv.Count
			}
			if n != uint64(len(addrs)) {
				return fmt.Errorf("experiments: %s{round=%d} holds %d observations over %d daemons, want one each",
					name, round, n, len(addrs))
			}
		}
	}
	return nil
}
