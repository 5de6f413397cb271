package cluster

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/transport"
)

// Harness spawns and reaps a localhost cluster of hdknode child
// processes for end-to-end tests and CI: node 0 listens on an ephemeral
// port, every later node joins through it, and Start returns once the
// membership view has converged on every daemon. Each daemon's stdout is
// parsed for the "hdknode listening on <addr>" banner. With DataRoot set
// every daemon runs durable (-data DataRoot/node<i>), and Restart brings
// a killed daemon back on its original address for warm-rejoin
// scenarios.
type Harness struct {
	// Bin is the hdknode binary path (see BuildHDKNode).
	Bin string
	// Stderr, when non-nil, receives every daemon's stderr (test logs).
	Stderr *os.File
	// DataRoot, when non-empty, gives each daemon a durable data
	// directory under it ("node0", "node1", ...) with -fsync always, the
	// SIGKILL-proof setting restart tests need.
	DataRoot string
	// LogDir, when non-empty, tees each daemon's stdout and stderr into
	// LogDir/node<i>.log (appending across restarts, so one file tells
	// a daemon's whole multi-incarnation story) — the artifact a chaos
	// failure uploads next to the fault schedule.
	LogDir string

	procs     []*exec.Cmd
	addrs     []string
	httpAddrs []string
	dead      []bool
	replicas  int
	extra     []string
}

// NodeDataDir returns daemon i's durable data directory ("" without
// DataRoot) — the artifact to collect when a restart scenario fails.
func (h *Harness) NodeDataDir(i int) string {
	if h.DataRoot == "" {
		return ""
	}
	return filepath.Join(h.DataRoot, fmt.Sprintf("node%d", i))
}

// nodeArgs assembles daemon i's command line. listen is the concrete
// address (the original one on restart, "127.0.0.1:0" initially) and
// join the address of a live member ("" for the bootstrap node).
func (h *Harness) nodeArgs(i int, listen, join string) []string {
	args := []string{"-listen", listen, "-replicas", fmt.Sprint(h.replicas)}
	if join != "" {
		args = append(args, "-join", join)
	}
	if dir := h.NodeDataDir(i); dir != "" {
		args = append(args, "-data", dir, "-fsync", "always")
	}
	return append(args, h.extra...)
}

// BuildHDKNode compiles cmd/hdknode into dir and returns the binary
// path. It must run from within the module (any package directory works,
// which is where `go test` runs).
func BuildHDKNode(dir string) (string, error) {
	bin := filepath.Join(dir, "hdknode")
	cmd := exec.Command("go", "build", "-o", bin, "repro/cmd/hdknode")
	out, err := cmd.CombinedOutput()
	if err != nil {
		return "", fmt.Errorf("cluster: build hdknode: %v\n%s", err, out)
	}
	return bin, nil
}

// startTimeout bounds one daemon's time-to-banner and the whole
// membership convergence wait.
const startTimeout = 30 * time.Second

// Start launches n daemons with the given replication factor and waits
// for membership convergence. extraArgs are appended to every daemon's
// command line (and remembered for Restart). On error every daemon it
// launched has been stopped and reaped.
func (h *Harness) Start(n, replicas int, extraArgs ...string) (err error) {
	if n < 1 {
		return fmt.Errorf("cluster: need at least one node")
	}
	defer func() {
		if err != nil {
			h.Stop()
		}
	}()
	h.replicas = replicas
	h.extra = extraArgs
	for i := 0; i < n; i++ {
		join := ""
		if i > 0 {
			join = h.addrs[0]
		}
		cmd := exec.Command(h.Bin, h.nodeArgs(i, "127.0.0.1:0", join)...)
		stdout, logf, err := h.wirePipes(cmd, i)
		if err != nil {
			return err
		}
		if err := cmd.Start(); err != nil {
			closeLog(logf)
			return fmt.Errorf("cluster: start node %d: %w", i, err)
		}
		h.procs = append(h.procs, cmd)
		h.dead = append(h.dead, false)
		addr, httpAddr, err := awaitBanner(stdout, logf)
		if err != nil {
			return fmt.Errorf("cluster: node %d: %w", i, err)
		}
		h.addrs = append(h.addrs, addr)
		h.httpAddrs = append(h.httpAddrs, httpAddr)
	}
	return h.awaitConvergence(n)
}

// Restart brings a killed daemon back on its ORIGINAL listen address —
// same ring position, same replica sets — joining through the first
// live member. With DataRoot set the daemon reloads its durable store
// and runs its warm-rejoin catch-up before printing the banner Restart
// waits for, so a returned Restart means the daemon is serving its
// restored index.
func (h *Harness) Restart(i int) error {
	if i < 0 || i >= len(h.procs) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if !h.dead[i] {
		return fmt.Errorf("cluster: node %d is still running", i)
	}
	join := ""
	for j, addr := range h.addrs {
		if j != i && !h.dead[j] {
			join = addr
			break
		}
	}
	if join == "" {
		return fmt.Errorf("cluster: no live member for node %d to rejoin through", i)
	}
	cmd := exec.Command(h.Bin, h.nodeArgs(i, h.addrs[i], join)...)
	stdout, logf, err := h.wirePipes(cmd, i)
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		closeLog(logf)
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	addr, httpAddr, err := awaitBanner(stdout, logf)
	if err != nil {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("cluster: restart node %d: %w", i, err)
	}
	if addr != h.addrs[i] {
		cmd.Process.Kill()
		cmd.Wait()
		return fmt.Errorf("cluster: node %d restarted on %s, want %s", i, addr, h.addrs[i])
	}
	h.procs[i] = cmd
	h.dead[i] = false
	// The HTTP endpoint usually runs on an ephemeral port, so a restart
	// re-learns it (unlike the RPC address, which is pinned).
	h.httpAddrs[i] = httpAddr
	return nil
}

// wirePipes prepares one daemon invocation's stdio: stdout comes back
// as the reader awaitBanner scans, and with LogDir set both streams tee
// into the per-node log file (which awaitBanner's drain goroutine closes
// once the daemon exits).
func (h *Harness) wirePipes(cmd *exec.Cmd, i int) (stdout io.Reader, logf *os.File, err error) {
	cmd.Stderr = h.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return nil, nil, err
	}
	stdout = pipe
	if h.LogDir == "" {
		return stdout, nil, nil
	}
	logf, err = os.OpenFile(filepath.Join(h.LogDir, fmt.Sprintf("node%d.log", i)),
		os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: node %d log: %w", i, err)
	}
	if h.Stderr != nil {
		cmd.Stderr = io.MultiWriter(logf, h.Stderr)
	} else {
		cmd.Stderr = logf
	}
	return io.TeeReader(pipe, logf), logf, nil
}

// closeLog closes a per-node log file if one was opened (start-failure
// path; the success path hands ownership to awaitBanner's drainer).
func closeLog(logf *os.File) {
	if logf != nil {
		logf.Close()
	}
}

// awaitBanner scans a daemon's stdout for the listening banner, also
// collecting the observability-endpoint banner ("hdknode http on
// <addr>", printed first when the daemon runs with -http; "" without).
// logf, when non-nil, is the per-node log file the stream tees into;
// the drain goroutine closes it at process exit (stdout EOF), so every
// incarnation's output is flushed before the next restart appends.
func awaitBanner(r io.Reader, logf *os.File) (addr, httpAddr string, err error) {
	type result struct {
		addr, httpAddr string
		err            error
	}
	ch := make(chan result, 1)
	go func() {
		defer closeLog(logf)
		var http string
		sc := bufio.NewScanner(r)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "hdknode http on "); ok {
				http = strings.TrimSpace(rest)
				continue
			}
			if rest, ok := strings.CutPrefix(line, "hdknode listening on "); ok {
				ch <- result{addr: strings.TrimSpace(rest), httpAddr: http}
				// Keep draining stdout so the child never blocks on a
				// full pipe.
				for sc.Scan() {
				}
				return
			}
		}
		ch <- result{err: fmt.Errorf("stdout closed before listen banner (%v)", sc.Err())}
	}()
	select {
	case res := <-ch:
		return res.addr, res.httpAddr, res.err
	case <-time.After(startTimeout):
		return "", "", fmt.Errorf("no listen banner within %v", startTimeout)
	}
}

// awaitConvergence polls every daemon until each reports n members.
func (h *Harness) awaitConvergence(n int) error {
	tr := transport.NewTCP()
	defer tr.Close()
	deadline := time.Now().Add(startTimeout)
	for {
		converged := true
		for _, addr := range h.addrs {
			members, err := MembersOf(tr, addr)
			if err != nil || len(members) != n {
				converged = false
				break
			}
		}
		if converged {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("cluster: membership did not converge to %d within %v", n, startTimeout)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// AwaitMembers blocks until every daemon reports n members (or the
// start timeout passes) — the readiness re-poll a fault driver runs
// after a restart-under-load before firing the next action at the
// returned daemon. Every daemon must be running: a dead process can
// never converge, so call this only with the full cluster up.
func (h *Harness) AwaitMembers(n int) error { return h.awaitConvergence(n) }

// Addrs returns the daemons' listen addresses in start order.
func (h *Harness) Addrs() []string { return append([]string(nil), h.addrs...) }

// HTTPAddrs returns the daemons' observability-endpoint addresses in
// start order ("" for daemons running without -http).
func (h *Harness) HTTPAddrs() []string { return append([]string(nil), h.httpAddrs...) }

// Kill crashes daemon i (SIGKILL) and reaps it — the ungraceful
// departure the availability scenario simulates.
func (h *Harness) Kill(i int) error {
	if i < 0 || i >= len(h.procs) {
		return fmt.Errorf("cluster: no node %d", i)
	}
	if h.dead[i] {
		return nil
	}
	h.dead[i] = true
	if err := h.procs[i].Process.Kill(); err != nil {
		return err
	}
	h.procs[i].Wait() // reap; exit error expected after SIGKILL
	return nil
}

// Stop terminates every live daemon (SIGTERM, then SIGKILL after a grace
// period) and reaps all children.
func (h *Harness) Stop() {
	for i, cmd := range h.procs {
		if h.dead[i] {
			continue
		}
		h.dead[i] = true
		cmd.Process.Signal(os.Interrupt)
		done := make(chan struct{})
		go func(c *exec.Cmd) {
			c.Wait()
			close(done)
		}(cmd)
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	}
}
