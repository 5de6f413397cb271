package cluster

import (
	"os"
	"path/filepath"
	"testing"
)

// TestHarnessStartReapsOnError pins Start's failure path: when a later
// node cannot be launched, the daemons already running are stopped and
// reaped instead of orphaned — callers fail before their deferred Stop
// is registered. A shell stub stands in for hdknode (it prints the
// listen banner and sleeps), and node 1's log path is a directory, so
// wiring its pipes fails after node 0 is up.
func TestHarnessStartReapsOnError(t *testing.T) {
	dir := t.TempDir()
	stub := filepath.Join(dir, "hdknode-stub")
	script := "#!/bin/sh\necho 'hdknode listening on 127.0.0.1:1'\nexec sleep 60\n"
	if err := os.WriteFile(stub, []byte(script), 0o755); err != nil {
		t.Fatal(err)
	}
	logDir := filepath.Join(dir, "logs")
	if err := os.MkdirAll(filepath.Join(logDir, "node1.log"), 0o755); err != nil {
		t.Fatal(err)
	}
	h := &Harness{Bin: stub, LogDir: logDir}
	t.Cleanup(h.Stop)
	if err := h.Start(2, 1); err == nil {
		t.Fatal("Start succeeded with node 1's log path a directory")
	}
	if len(h.procs) != 1 {
		t.Fatalf("Start launched %d daemons before failing, want 1", len(h.procs))
	}
	if h.procs[0].ProcessState == nil {
		t.Error("node 0 is still running after Start failed — the daemon was orphaned")
	}
}
