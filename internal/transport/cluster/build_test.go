package cluster

import (
	"errors"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func roundLabel(round int) telemetry.Label { return telemetry.L("round", strconv.Itoa(round)) }

// statusScript is a fabric stub for awaitRound: every member acks
// anything, and answers round-status frames from a per-member script of
// states (the last one repeats).
type statusScript map[string][]byte

func (f statusScript) CallService(addr, service string, req []byte) ([]byte, error) {
	if service != SvcBuild || len(req) == 0 || req[0] != buildFrameRoundStatus {
		return nil, nil
	}
	states := f[addr]
	state := states[0]
	if len(states) > 1 {
		f[addr] = states[1:]
	}
	msg := ""
	if state == buildFailed {
		msg = "disk on fire"
	}
	return encodeRoundStatusResp(state, 0, msg), nil
}

func TestAwaitRoundOutcomes(t *testing.T) {
	addrs := []string{"a", "b", "c"}
	done := statusScript{"a": {buildDone}, "b": {buildRunning, buildRunning, buildDone}, "c": {buildDone}}
	if err := awaitRound(done, addrs, 2); err != nil {
		t.Fatalf("all members done: %v", err)
	}
	failed := statusScript{"a": {buildDone}, "b": {buildRunning, buildFailed}, "c": {buildDone}}
	if err := awaitRound(failed, addrs, 2); err == nil || !strings.Contains(err.Error(), "round 2 failed at b: disk on fire") {
		t.Fatalf("failed member: got %v", err)
	}
	// A member that acked the round frame and now has no record of the
	// round restarted in between: the build must fail by name, not wait.
	lost := statusScript{"a": {buildDone}, "b": {buildDone}, "c": {buildIdle}}
	err := awaitRound(lost, addrs, 2)
	if err == nil || !strings.Contains(err.Error(), "build round 2 lost at c") {
		t.Fatalf("restarted member: got %v, want a named lost-round error", err)
	}
}

// frameBarrier is a fabric stub for startRound: a round frame blocks
// until every member's frame has arrived, so the frames only complete if
// they are in flight together. Sent one at a time, the first times out.
type frameBarrier struct {
	all     chan struct{}
	members int
	fail    map[string]string // addr -> error message its frame returns
	mu      sync.Mutex
	n       int
}

func newFrameBarrier(members int, fail map[string]string) *frameBarrier {
	return &frameBarrier{all: make(chan struct{}), members: members, fail: fail}
}

func (f *frameBarrier) CallService(addr, service string, req []byte) ([]byte, error) {
	if service != SvcBuild || len(req) == 0 || req[0] != buildFrameRound {
		return nil, fmt.Errorf("unexpected frame %q to %s", service, addr)
	}
	f.mu.Lock()
	if f.n++; f.n == f.members {
		close(f.all)
	}
	f.mu.Unlock()
	select {
	case <-f.all:
	case <-time.After(2 * time.Second):
		return nil, fmt.Errorf("frame to %s waited alone: round frames were not sent together", addr)
	}
	if msg, ok := f.fail[addr]; ok {
		return nil, errors.New(msg)
	}
	return nil, nil
}

func TestStartRoundSendsFramesTogether(t *testing.T) {
	addrs := []string{"a", "b", "c", "d"}
	if err := startRound(newFrameBarrier(len(addrs), nil), addrs, 1); err != nil {
		t.Fatal(err)
	}
	// Several members fail: the error names the first in member order.
	fab := newFrameBarrier(len(addrs), map[string]string{"d": "late failure", "b": "first failure"})
	err := startRound(fab, addrs, 2)
	if err == nil || !strings.Contains(err.Error(), "build round 2 at b: first failure") {
		t.Fatalf("got %v, want the failure of member b", err)
	}
}

// TestBuildFailsOnLostRound runs a real daemon-coordinated build over
// two ingested daemons plus one member that behaves like a worker which
// was kicked off, crashed and came back: it acks every frame and reports
// idle for the round. The coordinator must end the build as failed with
// the lost-round error in cluster.info — not poll forever as running.
func TestBuildFailsOnLostRound(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 2, 1)

	const amnesiac = "node-amnesiac"
	if _, err := tr.Listen(amnesiac, func(req []byte) ([]byte, error) {
		service, payload, err := overlay.DecodeEnvelope(req)
		if err != nil {
			return nil, err
		}
		switch {
		case service == SvcBuild && len(payload) > 0 && payload[0] == buildFrameRoundStatus:
			return encodeRoundStatusResp(buildIdle, 0, ""), nil
		case service == core.SvcInsert:
			return []byte{0}, nil // an empty classified-keys batch
		}
		return nil, nil
	}); err != nil {
		t.Fatal(err)
	}
	for _, s := range servers {
		if _, err := tr.Call(s.Addr(), overlay.EncodeEnvelope(ctrlAnnounce, []byte(amnesiac))); err != nil {
			t.Fatal(err)
		}
	}

	c, err := Dial(Options{Transport: tr, Addrs: []string{servers[0].Addr(), servers[1].Addr()}})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range servers {
		if _, err := c.Ingest(s.Addr(), ShardSource(col, cfg, 1, i, len(servers))); err != nil {
			t.Fatal(err)
		}
	}
	finished := make(chan error, 1)
	go func() { finished <- c.BuildRemote(servers[0].Addr(), nil) }()
	select {
	case err = <-finished:
	case <-time.After(10 * time.Second):
		t.Fatal("build still running 10s after a member lost its round")
	}
	want := "build round 1 lost at " + amnesiac
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("BuildRemote = %v, want an error naming %q", err, want)
	}
	info, err := FetchInfo(tr, servers[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	if info.BuildState != "failed" || !strings.Contains(info.BuildError, want) {
		t.Fatalf("cluster.info build state %q error %q, want failed / %q", info.BuildState, info.BuildError, want)
	}
}

// runningRound installs a worker round in flight on a bare server and
// returns the function that completes it the way a finished pass does.
func runningRound(s *Server, size int) (finish func()) {
	r := &workerRound{state: buildRunning, done: make(chan struct{})}
	b := &s.build
	b.mu.Lock()
	b.rounds = map[int]*workerRound{size: r}
	b.mu.Unlock()
	return func() {
		b.mu.Lock()
		r.state, r.doneAt = buildDone, time.Now()
		b.mu.Unlock()
		close(r.done)
	}
}

func roundStatus(t *testing.T, tr transport.Transport, addr string, size int) (byte, time.Duration, error) {
	t.Helper()
	start := time.Now()
	raw, err := tr.Call(addr, overlay.EncodeEnvelope(SvcBuild, encodeBuildRoundStatus(size)))
	if err != nil {
		return 0, time.Since(start), err
	}
	state, _, _, err := decodeRoundStatusResp(raw)
	return state, time.Since(start), err
}

// TestRoundStatusLongPoll pins the status frame's blocking contract: it
// answers the moment the round leaves running, answers running once
// buildWaitCap has passed, and answers at once for finished or unknown
// rounds.
func TestRoundStatusLongPoll(t *testing.T) {
	tr := transport.NewInProc()
	defer tr.Close()
	s := startInProcServers(t, tr, 1, 1)[0]
	finish := runningRound(s, 1)

	// Still running at the cap.
	state, took, err := roundStatus(t, tr, s.Addr(), 1)
	if err != nil || state != buildRunning {
		t.Fatalf("status of a running round = %d, %v; want running", state, err)
	}
	if took < buildWaitCap*9/10 || took > buildWaitCap+time.Second {
		t.Fatalf("running round answered after %v, want about %v", took, buildWaitCap)
	}

	// Woken by completion, not by the cap.
	var finishedAt time.Time
	go func() {
		time.Sleep(50 * time.Millisecond)
		finishedAt = time.Now()
		finish()
	}()
	state, _, err = roundStatus(t, tr, s.Addr(), 1)
	lag := time.Since(finishedAt)
	if err != nil || state != buildDone {
		t.Fatalf("status across completion = %d, %v; want done", state, err)
	}
	if lag > buildWaitCap/4 {
		t.Fatalf("status answered %v after the round completed; it must be woken by the completion", lag)
	}
	hv, _ := s.Metrics().Snapshot().Histogram(metricBuildBarrierWaitNanos, roundLabel(1))
	if hv.Count != 1 {
		t.Fatalf("barrier-wait observations = %d after the first done report, want 1", hv.Count)
	}

	// Finished and unknown rounds never block.
	for size, want := range map[int]byte{1: buildDone, 2: buildIdle} {
		if state, took, err := roundStatus(t, tr, s.Addr(), size); err != nil || state != want || took > buildWaitCap/4 {
			t.Fatalf("round %d: state %d after %v (%v), want %d at once", size, state, took, err, want)
		}
	}
	if hv, _ := s.Metrics().Snapshot().Histogram(metricBuildBarrierWaitNanos, roundLabel(1)); hv.Count != 1 {
		t.Fatalf("barrier-wait observed %d times, want once per round", hv.Count)
	}
}

// TestRoundStatusWaiterEndsWithoutCaller drops the caller's connection
// while its status frame is blocked at the daemon: the waiter must still
// end on its own (within buildWaitCap), so closing the daemon's transport
// — which waits for every handler — returns promptly and the package leak
// check finds nothing behind.
func TestRoundStatusWaiterEndsWithoutCaller(t *testing.T) {
	srvTr := transport.NewTCP()
	s, err := NewServer(srvTr, "127.0.0.1:0", 1)
	if err != nil {
		t.Fatal(err)
	}
	runningRound(s, 1) // never finishes

	cliTr := transport.NewTCP()
	callErr := make(chan error, 1)
	go func() {
		_, _, err := roundStatus(t, cliTr, s.Addr(), 1)
		callErr <- err
	}()
	time.Sleep(100 * time.Millisecond) // the frame is at the daemon, blocked
	cliTr.Close()
	if err := <-callErr; err == nil {
		t.Fatal("status call survived its transport being closed")
	}
	start := time.Now()
	srvTr.Close()
	if took := time.Since(start); took > buildWaitCap+time.Second {
		t.Fatalf("daemon transport took %v to drain the orphaned waiter, want under %v", took, buildWaitCap+time.Second)
	}
}

// TestBuildStartFollowsWithoutPolling: a repeated start frame of a running
// build blocks until the coordinator moves, and the end of the build
// releases every follower.
func TestBuildStartFollowsWithoutPolling(t *testing.T) {
	b := &serverBuild{coordState: buildRunning, coordMoved: make(chan struct{}, 1)}
	woke := make(chan time.Duration, 2)
	for i := 0; i < 2; i++ {
		go func() {
			start := time.Now()
			waitBuild(b.coordMoved)
			woke <- time.Since(start)
		}()
	}
	time.Sleep(50 * time.Millisecond)
	b.coordMove(func() { b.round = 2 }) // one token: one follower wakes
	if took := <-woke; took > buildWaitCap/2 {
		t.Fatalf("follower woke after %v, want at the round change", took)
	}
	b.coordMove(func() { b.coordState = buildDone }) // the end wakes the rest
	if took := <-woke; took > buildWaitCap/2 {
		t.Fatalf("second follower woke after %v, want at the end of the build", took)
	}
	if _, open := <-b.coordMoved; open {
		t.Fatal("coordMoved still open after the build ended")
	}
}
