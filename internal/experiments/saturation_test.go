package experiments

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// TestTCPSaturationE2E boots a real 5-process hdknode cluster whose
// daemons run a deliberately tiny serving capacity (-search-workers 2
// -search-queue 2) and drives offered load past it: the coordinator
// must shed the excess with explicit retry-after rejections, keep p99
// bounded for the requests it accepts, answer every accepted request
// bit-identically to the in-process reference, and return to accepting
// everything one backoff cycle after the load stops. This is a CI
// cluster-e2e gate. With SATURATION_LOG_DIR set, the daemons' stderr
// goes to a file there instead of the test's stderr (the CI artifact
// uploaded on failure).
func TestTCPSaturationE2E(t *testing.T) {
	bin := hdknodeBin(t)
	opts := DefaultSaturationOpts()

	stderr := os.Stderr
	if dir := os.Getenv("SATURATION_LOG_DIR"); dir != "" {
		f, err := os.Create(filepath.Join(dir, "saturation-nodes.log"))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		stderr = f
	}
	h := &cluster.Harness{Bin: bin, Stderr: stderr}
	if err := h.Start(opts.Nodes, opts.Replicas,
		"-search-workers", "2", "-search-queue", "2"); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	tr := transport.NewTCP()
	defer tr.Close()
	rep, err := Saturation(tr, h.Addrs(), opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rep.Fprint(os.Stderr)

	failOn(t, rep.Failures())
}
