package experiments

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// TestTCPTelemetryE2E boots a real 5-process hdknode cluster with the
// observability surface fully enabled (-http 127.0.0.1:0, -slow-query
// 1ns, and -search-workers 1 -search-queue 0 so a burst actually
// sheds) and runs the telemetry scenario: the daemons' cluster.metrics
// counter deltas must equal the client-observed served/hit/miss/shed
// counts EXACTLY, traced coordinations must match the coordinator's
// own SearchResult and the client-fabric engine's per-level RPC counters
// (searching from the coordinating member) span by span, and every
// /metrics exposition must parse with a non-zero coordination p99 and
// the found-keys and local-fetches series. This is a CI cluster-e2e
// gate.
func TestTCPTelemetryE2E(t *testing.T) {
	bin := hdknodeBin(t)
	opts := DefaultTelemetryOpts()

	// The daemons' stderr goes to a file so the test can also assert the
	// slow-query log actually emitted a line (the counter alone can't
	// prove the operator-visible side).
	logPath := filepath.Join(t.TempDir(), "daemons.stderr")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()

	h := &cluster.Harness{Bin: bin, Stderr: logFile}
	if err := h.Start(opts.Nodes, opts.Replicas,
		"-search-workers", "1", "-search-queue", "0",
		"-http", "127.0.0.1:0", "-slow-query", "1ns"); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	for i, addr := range h.HTTPAddrs() {
		if addr == "" {
			t.Fatalf("daemon %d printed no http banner", i)
		}
	}

	tr := transport.NewTCP()
	defer tr.Close()
	rep, err := Telemetry(tr, h.Addrs(), h.HTTPAddrs(), opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rep.Fprint(os.Stderr)

	failOn(t, rep.Failures())

	// The operator-visible side of the slow-query log: at least one
	// rate-limited line on some daemon's stderr.
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logBytes), "slow query") {
		t.Error("no 'slow query' line on any daemon's stderr with -slow-query 1ns")
	}
}

// TestHDKSearchTraceE2E drives the interactive shell the way an
// operator debugging a query would: hdksearch -connect -coordinator
// -trace against a fresh 3-daemon cluster, one query typed on stdin,
// and the daemon's span tree printed under the answer. It asserts the
// rendered tree carries the coordination structure (root, levels,
// fetch waves, rank).
func TestHDKSearchTraceE2E(t *testing.T) {
	nodeBin := hdknodeBin(t)
	searchBin := filepath.Join(t.TempDir(), "hdksearch")
	if out, err := exec.Command("go", "build", "-o", searchBin, "repro/cmd/hdksearch").CombinedOutput(); err != nil {
		t.Fatalf("build hdksearch: %v\n%s", err, out)
	}

	h := &cluster.Harness{Bin: nodeBin, Stderr: os.Stderr}
	if err := h.Start(3, 2); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, searchBin,
		"-connect", h.Addrs()[0], "-coordinator", "-trace", "-docs", "120", "-dfmax", "8")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Read until the shell prints its sample vocabulary, type a query
	// from it, quit, and collect everything the shell printed.
	var out strings.Builder
	sc := bufio.NewScanner(stdout)
	queried := false
	for sc.Scan() {
		line := sc.Text()
		out.WriteString(line)
		out.WriteByte('\n')
		if rest, ok := strings.CutPrefix(line, "sample vocabulary: "); ok && !queried {
			terms := strings.Fields(rest)
			if len(terms) == 0 {
				t.Fatal("empty sample vocabulary")
			}
			fmt.Fprintf(stdin, "%s\n:quit\n", strings.Join(terms[:min(2, len(terms))], " "))
			stdin.Close()
			queried = true
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("hdksearch exited: %v\noutput:\n%s", err, out.String())
	}
	if !queried {
		t.Fatalf("shell never printed its sample vocabulary:\n%s", out.String())
	}

	// The span tree under the answer: the coordination root plus at
	// least one lattice level with its fetch wave, and the final rank.
	text := out.String()
	for _, span := range []string{"coordinate", "level", "fetch", "rank"} {
		if !strings.Contains(text, span) {
			t.Errorf("span tree missing %q:\n%s", span, text)
		}
	}
}
