package experiments

import (
	"os"
	"sync"
	"testing"

	"repro/internal/lint/leakcheck"
	"repro/internal/transport/cluster"
)

// Experiment scenarios spin up whole in-process networks, cluster
// clients and — in the e2e suite — closed-loop workload goroutines
// against daemon subprocesses; leakcheck fails the run if any of them
// (a worker that missed its stop signal, an unclosed transport, a
// serving loop) survives the tests.
func TestMain(m *testing.M) {
	code := leakcheck.Main(m)
	if hdknode.dir != "" {
		os.RemoveAll(hdknode.dir)
	}
	os.Exit(code)
}

// hdknode is the daemon binary the e2e tests share: built at most once
// per test binary, into a directory TestMain removes.
var hdknode struct {
	once     sync.Once
	dir, bin string
	err      error
}

// hdknodeBin returns the hdknode binary for a test that spawns daemons:
// it skips the test under -short, returns $HDKNODE_BIN when set (CI
// prebuilds the daemon once), and otherwise builds cmd/hdknode on the
// first call and reuses it after.
func hdknodeBin(t *testing.T) string {
	t.Helper()
	if testing.Short() {
		t.Skip("spawns child processes; skipped in -short mode")
	}
	if bin := os.Getenv("HDKNODE_BIN"); bin != "" {
		return bin
	}
	hdknode.once.Do(func() {
		if hdknode.dir, hdknode.err = os.MkdirTemp("", "hdknode-bin-"); hdknode.err == nil {
			hdknode.bin, hdknode.err = cluster.BuildHDKNode(hdknode.dir)
		}
	})
	if hdknode.err != nil {
		t.Fatal(hdknode.err)
	}
	return hdknode.bin
}

// failOn reports every gate a scenario report missed.
func failOn(t *testing.T, failures []string) {
	t.Helper()
	for _, f := range failures {
		t.Error(f)
	}
}
