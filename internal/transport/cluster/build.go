package cluster

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/core"
)

// Server-side hdk.build: daemons run the round-synchronous collaborative
// indexing themselves, over the shards hdk.ingest delivered. Any daemon
// can coordinate — it fans the round out to every member (itself
// included, over loopback, so all shards take the identical path), waits
// until the round barrier holds, runs the classification sweep with its
// own engine, and repeats through SMax. Rounds can outlast the RPC
// timeout by orders of magnitude, so every long-running step is an
// asynchronous kick-off plus status frames that block server-side — no
// lock held — until the step finishes or buildWaitCap passes: the waiter
// is woken by the completion itself, not by the next tick of a poll.
// Per-round progress is surfaced through cluster.info and the telemetry
// registry.

// buildWaitCap bounds how long one status frame (or repeated start frame)
// blocks waiting for progress: far below the RPC timeout, and the longest
// a waiter can outlive a caller whose connection dropped.
const buildWaitCap = time.Second

// serverBuild is one daemon's build-path state: the lazily constructed
// engine hosting its shard's peer, the per-round worker states, and the
// coordinator state machine (only the daemon that received hdk.build
// start runs the latter).
type serverBuild struct {
	mu sync.Mutex

	eng  *core.Engine
	peer *core.Peer

	rounds map[int]*workerRound // worker: round size -> this shard's pass
	round  int                  // latest round this daemon has touched (either role)

	coordState byte // coordinator state machine (buildIdle before start)
	coordErr   string
	// coordMoved holds one token whenever the coordinator's round or state
	// changed since a repeated start frame last looked: that frame blocks
	// on it, so a client following the build wakes on the change instead
	// of polling for it. Capacity 1 — signalling never blocks, and
	// changes nobody waited for coalesce.
	coordMoved chan struct{}
}

// workerRound is this daemon's generation + insert pass for one round.
type workerRound struct {
	state    byte          // buildRunning until the pass ends, then buildDone or buildFailed
	err      string        // failure message (buildFailed)
	done     chan struct{} // closed when state leaves buildRunning
	doneAt   time.Time     // when it did
	reported bool          // a status frame has told the coordinator the pass completed
}

// buildEngine lazily constructs the daemon's build engine: its
// coordination fabric pinned to the view of the moment, with every
// member's store remote (the daemon's own included — self-inserts travel
// the loopback RPC path, so they are metered, durably logged and
// cache-invalidated exactly like everyone else's), plus one peer hosting
// the ingested shard. The peer's notify
// handler is also registered on the daemon's own dispatch, so an
// EXTERNAL coordinator's expansion notifications reach it over the wire.
func (s *Server) buildEngine() (*core.Engine, *core.Peer, error) {
	b := &s.build
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.eng != nil {
		return b.eng, b.peer, nil
	}
	s.mu.Lock()
	store, shard, freqs := s.store, s.shard, s.shardFreqs
	s.mu.Unlock()
	if store == nil {
		return nil, nil, fmt.Errorf("cluster: %s not configured", s.addr)
	}
	if shard == nil {
		return nil, nil, fmt.Errorf("cluster: %s holds no ingested corpus shard", s.addr)
	}
	// The build places every key on the membership it started with: a
	// member joining mid-build reaches the searches, not this engine.
	eng, err := core.NewEngine(s.fabric.pinned(), store.Config(), shard.Vocab, freqs)
	if err != nil {
		return nil, nil, err
	}
	eng.Instrument(s.metrics.reg)
	peer, err := eng.AddPeer(s.self, shard)
	if err != nil {
		return nil, nil, err
	}
	// The fabric's self stub got the notify handler (in-process delivery
	// for a self-coordinated build); this registration is the remote
	// road in — another daemon's coordinator reaches this peer through
	// plain dispatch.
	s.Handle(core.SvcNotify, peer.ServeNotify)
	b.eng, b.peer = eng, peer
	b.rounds = make(map[int]*workerRound)
	b.coordMoved = make(chan struct{}, 1)
	return eng, peer, nil
}

// handleBuild dispatches one hdk.build frame.
func (s *Server) handleBuild(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errCorruptFrame
	}
	body := payload[1:]
	switch payload[0] {
	case buildFrameStart:
		return s.handleBuildStart()
	case buildFrameRound:
		size, err := decodeBuildSize(body)
		if err != nil {
			return nil, err
		}
		return nil, s.handleBuildRound(size)
	case buildFrameRoundStatus:
		size, err := decodeBuildSize(body)
		if err != nil {
			return nil, err
		}
		return s.handleBuildRoundStatus(size)
	case buildFrameFinish:
		return nil, s.handleBuildFinish()
	}
	return nil, errCorruptFrame
}

// handleBuildRound starts this daemon's candidate-generation + insert
// pass for round size (idempotent: a duplicate frame for a round already
// running or finished just acks). The pass runs in a goroutine — rounds
// outlast the RPC timeout — which ends the moment it publishes the
// round's outcome; the coordinator's status frame is woken by that.
func (s *Server) handleBuildRound(size int) error {
	eng, peer, err := s.buildEngine()
	if err != nil {
		return err
	}
	b := &s.build
	b.mu.Lock()
	if _, started := b.rounds[size]; started {
		b.mu.Unlock()
		return nil
	}
	r := &workerRound{state: buildRunning, done: make(chan struct{})}
	b.rounds[size] = r
	if size > b.round {
		b.round = size
	}
	b.mu.Unlock()
	go func() {
		times, err := eng.IndexPeerRound(peer, size)
		if err == nil {
			s.metrics.buildRounds.Inc()
			s.metrics.buildGenerate[size].ObserveDuration(times.Generate)
			s.metrics.buildInsert[size].ObserveDuration(times.Insert)
		}
		b.mu.Lock()
		r.state = buildDone
		if err != nil {
			r.state, r.err = buildFailed, err.Error()
		}
		r.doneAt = time.Now()
		b.mu.Unlock()
		close(r.done)
	}()
	return nil
}

// waitBuild blocks until ch fires, buildWaitCap passes or the daemon
// shuts down. Callers hold no lock.
func (s *Server) waitBuild(ch <-chan struct{}) {
	t := time.NewTimer(buildWaitCap)
	defer t.Stop()
	select {
	case <-ch:
	case <-t.C:
	case <-s.done:
	}
}

// handleBuildRoundStatus reports one round's worker state plus the
// store's resident key count (the coordinator's progress proxy). While
// the pass is running the frame blocks (waitBuild) and answers the
// moment the pass ends; a round this daemon has no record of answers
// idle at once — to a coordinator that started it, that means this
// daemon restarted and the round is lost.
func (s *Server) handleBuildRoundStatus(size int) ([]byte, error) {
	b := &s.build
	b.mu.Lock()
	r := b.rounds[size]
	b.mu.Unlock()
	state, msg := byte(buildIdle), ""
	if r != nil {
		s.waitBuild(r.done)
		b.mu.Lock()
		state, msg = r.state, r.err
		if state == buildDone && !r.reported {
			// First report of a completed pass: how long it sat finished
			// before the barrier's owner knew.
			r.reported = true
			s.metrics.buildBarrierWait[size].ObserveDuration(time.Since(r.doneAt))
		}
		b.mu.Unlock()
	}
	var keys uint64
	s.mu.Lock()
	if s.store != nil {
		keys = uint64(s.store.KeyCount())
	}
	s.mu.Unlock()
	return encodeRoundStatusResp(state, keys, msg), nil
}

// handleBuildFinish runs the build epilogue for this daemon's own peer
// (freshness reset, watermark advance). Synchronous — it touches no
// other process and finishes in microseconds.
func (s *Server) handleBuildFinish() error {
	eng, _, err := s.buildEngine()
	if err != nil {
		return err
	}
	eng.FinishBuild()
	return nil
}

// handleBuildStart makes this daemon the build coordinator. The first
// start returns at once — the orchestration runs in a goroutine — and
// carries the coordinator state, so a repeated start (a reconnecting
// client, or BuildRemote following the build) observes the running or
// finished build instead of forking a second one. A repeated start of a
// RUNNING build first blocks (waitBuild) until the coordinator's round
// or state moves: it is the frame a client waits on between looks at
// cluster.info.
func (s *Server) handleBuildStart() ([]byte, error) {
	if _, _, err := s.buildEngine(); err != nil {
		return nil, err
	}
	b := &s.build
	b.mu.Lock()
	if b.coordState == buildIdle {
		b.coordState = buildRunning
		b.mu.Unlock()
		go s.coordinateBuild()
		return []byte{buildRunning}, nil
	}
	running := b.coordState == buildRunning
	b.mu.Unlock()
	if running {
		s.waitBuild(b.coordMoved)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return []byte{b.coordState}, nil
}

// coordMove applies one change to the coordinator's round or state and
// leaves a token for whoever follows the build (see coordMoved). The
// change that ends the build — necessarily the last — closes the channel
// instead, releasing every waiter for good.
func (b *serverBuild) coordMove(change func()) {
	b.mu.Lock()
	change()
	ended := b.coordState != buildRunning
	b.mu.Unlock()
	if ended {
		close(b.coordMoved)
		return
	}
	select {
	case b.coordMoved <- struct{}{}:
	default:
	}
}

// coordinateBuild drives the full round-synchronous build from this
// daemon: for s = 1..SMax, every member (self included) indexes its
// shard for size s, the barrier holds when all report done, then the
// classification sweep + notify delivery runs — the exact loop
// core.Engine.BuildIndex runs in-process, with the per-peer quarter
// executed by the shard-owning daemons.
func (s *Server) coordinateBuild() {
	b := &s.build
	fail := func(err error) {
		b.coordMove(func() { b.coordState, b.coordErr = buildFailed, err.Error() })
	}
	eng, _, err := s.buildEngine()
	if err != nil {
		fail(err)
		return
	}
	fab := eng.Network()
	addrs := make([]string, 0, fab.Size())
	for _, m := range fab.Members() {
		addrs = append(addrs, m.Addr())
	}
	smax := eng.Config().SMax
	for size := 1; size <= smax; size++ {
		b.coordMove(func() { b.round = size })
		roundStart := time.Now()
		if err := startRound(fab, addrs, size); err != nil {
			fail(err)
			return
		}
		if err := awaitRound(fab, addrs, size); err != nil {
			fail(err)
			return
		}
		if err := eng.ClassifyRound(size); err != nil {
			fail(fmt.Errorf("cluster: build round %d classify: %w", size, err))
			return
		}
		s.metrics.buildRoundTime.ObserveDuration(time.Since(roundStart))
	}
	for _, addr := range addrs {
		if _, err := fab.CallService(addr, SvcBuild, encodeBuildFinish()); err != nil {
			fail(fmt.Errorf("cluster: build finish at %s: %w", addr, err))
			return
		}
	}
	b.coordMove(func() { b.coordState = buildDone })
}

// roundCaller is the part of the fabric the round barrier uses.
type roundCaller interface {
	CallService(addr, service string, req []byte) ([]byte, error)
}

// startRound sends round size's frame to every member at once and
// reports the first failure in member order. A frame returns once the
// member's pass is launched, but a member's first frame also builds its
// engine synchronously (vocabulary map, shard preprocessing, fabric), so
// sending the frames one at a time would stagger round 1 by the sum of
// those set-ups.
func startRound(fab roundCaller, addrs []string, size int) error {
	errs := make([]error, len(addrs))
	var wg sync.WaitGroup
	for i, addr := range addrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = fab.CallService(addr, SvcBuild, encodeBuildRound(size))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("cluster: build round %d at %s: %w", size, addrs[i], err)
		}
	}
	return nil
}

// awaitRound asks every member in turn for round size's outcome — the
// barrier that keeps classification strictly after the last insert of
// the round (the bit-identity invariant: inserts commute within a round,
// classification changes state only at sweep boundaries). Each status
// frame blocks at the member until its pass ends (or buildWaitCap, after
// which the same member is asked again), so the barrier releases as the
// slowest member finishes. Every member was started on this round before
// the first question, so one that answers idle has lost it — it
// restarted — and the build fails by name instead of waiting forever.
func awaitRound(fab roundCaller, addrs []string, size int) error {
	for _, addr := range addrs {
		for state := byte(buildRunning); state == buildRunning; {
			raw, err := fab.CallService(addr, SvcBuild, encodeBuildRoundStatus(size))
			if err != nil {
				return fmt.Errorf("cluster: build round %d status at %s: %w", size, addr, err)
			}
			var msg string
			if state, _, msg, err = decodeRoundStatusResp(raw); err != nil {
				return fmt.Errorf("cluster: build round %d status at %s: %w", size, addr, err)
			}
			switch state {
			case buildFailed:
				return fmt.Errorf("cluster: build round %d failed at %s: %s", size, addr, msg)
			case buildIdle:
				return fmt.Errorf("cluster: build round %d lost at %s", size, addr)
			}
		}
	}
	return nil
}

// buildProgress snapshots the daemon's build state for cluster.info:
// the coordinator state machine if this daemon coordinates, the worker
// view otherwise.
func (s *Server) buildProgress() (state string, round int, errMsg string) {
	b := &s.build
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.coordState != buildIdle {
		return buildStateName(b.coordState), b.round, b.coordErr
	}
	if b.eng == nil {
		return "idle", 0, ""
	}
	// Worker view: failed if any round failed, running if any is in
	// flight, else done-so-far.
	st := byte(buildIdle)
	for _, r := range b.rounds {
		switch r.state {
		case buildFailed:
			return "failed", b.round, r.err
		case buildRunning:
			st = buildRunning
		case buildDone:
			if st == buildIdle {
				st = buildDone
			}
		}
	}
	return buildStateName(st), b.round, ""
}

func buildStateName(state byte) string {
	switch state {
	case buildRunning:
		return "running"
	case buildDone:
		return "done"
	case buildFailed:
		return "failed"
	}
	return "idle"
}
