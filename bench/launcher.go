package main

import (
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"syscall"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// fleet is the benchmark's own daemon launcher. The shared cluster.Harness
// listens on :0, and ring placement hashes the listen address, so its
// counters (probes, fetch RPCs, failovers) move from run to run; fixed
// loopback ports make them repeat.
type fleet struct {
	bin      string
	outDir   string // per-node logs and durable data dirs live here
	basePort int
	tag      string // log/data-dir name prefix, one per workload

	// mu orders the signal handler's stop against a start in progress;
	// once closed, start spawns nothing more.
	mu      sync.Mutex
	closed  bool
	procs   []*exec.Cmd
	logs    []*os.File
	dataDir string // "" for a memory-only fleet
}

func (f *fleet) addr(i int) string { return fmt.Sprintf("127.0.0.1:%d", f.basePort+i) }

func (f *fleet) addrs() []string {
	out := make([]string, nodes)
	for i := range out {
		out[i] = f.addr(i)
	}
	return out
}

const bootTimeout = 20 * time.Second

// start boots the daemons and returns once every one of them reports the
// full membership. extra is appended to every daemon's command line.
func (f *fleet) start(durable bool, extra ...string) error {
	for i := 0; i < nodes; i++ {
		ln, err := net.Listen("tcp", f.addr(i))
		if err != nil {
			return fmt.Errorf("port %d is busy (choose another -base-port): %w", f.basePort+i, err)
		}
		ln.Close()
	}
	dataDir := ""
	if durable {
		dataDir = filepath.Join(f.outDir, "data-"+f.tag)
		if err := os.RemoveAll(dataDir); err != nil {
			return err
		}
	}
	for i := 0; i < nodes; i++ {
		args := []string{"-listen", f.addr(i), "-replicas", fmt.Sprint(replicas)}
		if i > 0 {
			args = append(args, "-join", f.addr(0))
		}
		if durable {
			args = append(args, "-data", filepath.Join(dataDir, fmt.Sprintf("node%d", i)), "-fsync", "batch")
		}
		if err := f.spawn(i, dataDir, append(args, extra...)); err != nil {
			return err
		}
		// A joiner needs its seed listening; node 0 is polled before the
		// others start.
		if i == 0 {
			if err := f.awaitMembers(f.addr(0), 1); err != nil {
				return err
			}
		}
	}
	for i := 0; i < nodes; i++ {
		if err := f.awaitMembers(f.addr(i), nodes); err != nil {
			return err
		}
	}
	return nil
}

// spawn starts daemon i with its output in its own log file.
func (f *fleet) spawn(i int, dataDir string, args []string) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return errors.New("interrupted")
	}
	f.dataDir = dataDir
	logf, err := os.OpenFile(filepath.Join(f.outDir, fmt.Sprintf("%s-node%d.log", f.tag, i)),
		os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	cmd := exec.Command(f.bin, args...)
	cmd.Stdout, cmd.Stderr = logf, logf
	if err := cmd.Start(); err != nil {
		logf.Close()
		return fmt.Errorf("start node %d: %w", i, err)
	}
	f.procs = append(f.procs, cmd)
	f.logs = append(f.logs, logf)
	return nil
}

// shutdown is stop for the signal handler: nothing starts afterwards.
func (f *fleet) shutdown() {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	f.stop()
}

func (f *fleet) awaitMembers(addr string, n int) error {
	tr := transport.NewTCP()
	defer tr.Close()
	deadline := time.Now().Add(bootTimeout)
	for {
		members, err := cluster.MembersOf(tr, addr)
		if err == nil && len(members) >= n {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("daemon %s did not report %d members within %v (last error: %v; see %s)",
				addr, n, bootTimeout, err, f.outDir)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// usage is what the children cost, read from their rusage at exit.
type usage struct {
	cpu    time.Duration // user + system, summed over the daemons
	maxRSS int64         // largest daemon's peak resident set, bytes
}

// stop kills and reaps every child, closes the logs and removes the data
// directories. The daemons hold nothing worth a graceful exit: SIGKILL
// skips the durable fleet's shutdown snapshot. Safe to call twice.
func (f *fleet) stop() usage {
	f.mu.Lock()
	defer f.mu.Unlock()
	var u usage
	for _, cmd := range f.procs {
		cmd.Process.Kill()
		cmd.Wait() // exit error expected after SIGKILL
		if ps := cmd.ProcessState; ps != nil {
			u.cpu += ps.UserTime() + ps.SystemTime()
			if ru, ok := ps.SysUsage().(*syscall.Rusage); ok && ru.Maxrss<<10 > u.maxRSS {
				u.maxRSS = ru.Maxrss << 10 // Linux reports kilobytes
			}
		}
	}
	for _, l := range f.logs {
		l.Close()
	}
	f.procs, f.logs = nil, nil
	if f.dataDir != "" {
		os.RemoveAll(f.dataDir)
		f.dataDir = ""
	}
	return u
}

// dirBytes sums the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var total int64
	err := filepath.Walk(dir, func(_ string, info os.FileInfo, err error) error {
		if err != nil {
			// Compaction deletes files while we walk.
			if errors.Is(err, os.ErrNotExist) {
				return nil
			}
			return err
		}
		if info.Mode().IsRegular() {
			total += info.Size()
		}
		return nil
	})
	return total, err
}
