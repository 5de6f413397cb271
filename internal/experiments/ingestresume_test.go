package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// TestTCPIngestResumeE2E boots a real 5-process durable hdknode cluster
// (every daemon runs with -data -fsync always) and proves the
// durability contracts of the streamed build. The thin client's upload
// to one daemon is stopped after exactly killAfterChunks acked chunks,
// the daemon is SIGKILLed mid-session, restarted from its data
// directory, and the SAME ingest session resumed — which must skip
// precisely the acked prefix and re-ship ZERO of it; the
// daemon-coordinated build must then account for every round exactly
// and answer bit-identically to a never-interrupted in-process build.
// Then the daemon owning a probed key is SIGKILLed and restarted warm:
// bit-identical answers through a freshly discovered client, ZERO
// insert (re-index) RPCs since restart, an empty catch-up (nothing was
// missed under fsync always) and a full-coverage replica audit. This is
// the CI kill-mid-build and restart gate. Set RESTART_DATA_ROOT to pin
// the daemons' data directories somewhere collectable (CI uploads them
// on failure).
func TestTCPIngestResumeE2E(t *testing.T) {
	bin := hdknodeBin(t)
	dataRoot := os.Getenv("RESTART_DATA_ROOT")
	if dataRoot == "" {
		dataRoot = filepath.Join(t.TempDir(), "data")
	}
	opts := DefaultClusterOpts()

	h := &cluster.Harness{Bin: bin, Stderr: os.Stderr, DataRoot: dataRoot}
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
	t.Logf("report: %+v", *rep)
	failOn(t, rep.Failures())
}
