package experiments

import (
	"fmt"
	"io"
	"reflect"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file drives the streamed coordinator-side build path: a thin
// client ships every daemon its corpus shard over the chunked,
// resumable hdk.ingest session and any daemon coordinates the
// round-synchronous hdk.build — the client never holds the collection
// and never runs a round. TCPIngestResume is the durability scenario
// behind the resume and restart gates (SIGKILL mid-upload, restart from
// the data dir, resume with zero re-shipped acked chunks, bit-identical
// final index; then SIGKILL a built daemon and hold its warm restart to
// bit-identical answers with zero re-indexing); bench/ times the same
// path end to end.

// streamShard returns a one-document-at-a-time iterator over the shard
// ring member idx of n owns (document j goes to member j%n — the
// SplitRoundRobin placement the fat client used) plus the shard's
// document count. Iterating strides over the resident collection; the
// thin client proper (examples/wikipedia -stream) regenerates from a
// corpus.DocStream instead and holds neither.
func streamShard(col *corpus.Collection, idx, n int) (func() (corpus.Document, bool), int) {
	count := (len(col.Docs) - idx + n - 1) / n
	j := idx
	return func() (corpus.Document, bool) {
		if j >= len(col.Docs) {
			return corpus.Document{}, false
		}
		d := col.Docs[j]
		j += n
		return d, true
	}, count
}

// shardIngestSource assembles the IngestSource for member idx of n.
func shardIngestSource(col *corpus.Collection, cfg core.Config, session uint64, idx, n int) cluster.IngestSource {
	docs, count := streamShard(col, idx, n)
	return cluster.IngestSource{
		Session:   session,
		Config:    cfg,
		Vocab:     col.Vocab,
		TermFreqs: col.TermFrequencies(),
		TotalDocs: col.M(),
		ShardDocs: count,
		Docs:      docs,
	}
}

// IngestResumeReport is the durability scenario's measurement;
// Failures lists the gates it misses.
type IngestResumeReport struct {
	Nodes      int
	Replicas   int
	Docs       int
	Queries    int
	ChunkBytes int

	// Kill mid-upload and resume.
	VictimIdx       int // process index SIGKILLed mid-upload
	VictimChunks    int // chunks the victim's shard packs into (must exceed KillAfterChunks)
	KillAfterChunks int // chunks acked when the daemon was killed
	ResumeSkipped   int // chunks the restarted daemon already held (must == KillAfterChunks)
	ResumeResent    int // acked chunks shipped again on resume (must be 0)

	// RoundSeriesFault is why the build's per-round histograms did not
	// account for exactly one observation per daemon per round ("" when
	// they did).
	RoundSeriesFault string

	// Ranked-result parity of the post-crash streamed build vs the
	// never-interrupted in-process engine (must be 0).
	Mismatches int

	// Warm restart of the member owning a probed key, after the build:
	// parity of a freshly discovered client vs the reference (must be 0)
	// and the restarted daemon's self-description.
	RestartIdx        int
	PostMismatches    int
	Warm              bool   // store restored from disk
	RestoredKeys      int    // resident keys after restore + catch-up (must be > 0)
	InsertRPCs        uint64 // re-index RPCs served since restart (must be 0)
	CatchUpStale      int    // keys the restored store was behind on (must be 0)
	CatchUpPulled     int    // copies pulled during warm-rejoin catch-up (must be 0)
	UnderAfterRestart int    // replica coverage deficit at R after rejoin (must be 0)

	IngestNanos  int64
	BuildNanos   int64
	RestartNanos int64 // kill signal through restored daemon ready
}

// Failures returns one message per gate the run missed.
func (r *IngestResumeReport) Failures() []string {
	var g gates
	g.check(r.ResumeSkipped == r.KillAfterChunks, "resumed session skipped %d chunks, want the %d the killed daemon had durably acked", r.ResumeSkipped, r.KillAfterChunks)
	g.check(r.ResumeResent == 0, "resume re-shipped %d acked chunks, want exactly 0", r.ResumeResent)
	g.check(r.VictimChunks > r.KillAfterChunks, "victim shard packs into %d chunks — the interruption at %d was not mid-upload", r.VictimChunks, r.KillAfterChunks)
	g.check(r.RoundSeriesFault == "", "%s", r.RoundSeriesFault)
	g.check(r.Mismatches == 0, "%d/%d post-build queries diverged — the resumed build is not bit-identical to the uninterrupted one", r.Mismatches, r.Queries)
	g.check(r.PostMismatches == 0, "%d/%d post-restart queries diverged — the restored index is not bit-identical", r.PostMismatches, r.Queries)
	g.check(r.Warm, "restarted daemon did not report a warm (disk-restored) start")
	g.check(r.RestoredKeys > 0, "restarted daemon holds no keys — nothing was restored")
	g.check(r.InsertRPCs == 0, "restarted daemon served %d insert RPCs — recovery re-indexed instead of restoring", r.InsertRPCs)
	// fsync=always means the SIGKILL lost nothing: catch-up must find
	// zero stale keys. (A full re-replication would pull every restored
	// key; pulling none is the sharpest form of "delta only".)
	g.check(r.CatchUpStale == 0 && r.CatchUpPulled == 0, "catch-up pulled %d copies (%d stale) despite fsync=always — restored state incomplete", r.CatchUpPulled, r.CatchUpStale)
	g.check(r.UnderAfterRestart == 0, "%d keys under-replicated after warm rejoin, want 0", r.UnderAfterRestart)
	return g
}

// Clean reports whether every gate held.
func (r *IngestResumeReport) Clean() bool { return len(r.Failures()) == 0 }

// killAfterChunks is where the scenario interrupts the victim's upload:
// the client stops after this many acked chunks and the daemon is
// SIGKILLed holding exactly that prefix durably.
const killAfterChunks = 5

// errIngestInterrupted is the deliberate client-side abort the scenario
// injects through IngestSource.OnChunk.
var errIngestInterrupted = fmt.Errorf("experiments: deliberate mid-upload interruption")

// TCPIngestResume runs the durability scenario against a live durable
// cluster (hdknode -data -fsync always): kill(i) SIGKILLs the process
// behind addrs[i], restart(i) brings it back on the same address from
// its data directory. Every shard but one is streamed in full, the
// victim's upload is stopped after exactly killAfterChunks acked chunks
// and its daemon SIGKILLed and restarted, and the client resumes the
// SAME session — which must skip exactly the acked prefix and re-ship
// zero of it. The cluster then runs the daemon-coordinated build, whose
// per-round series and ranked results must match the never-interrupted
// in-process reference exactly. Finally the member owning a probed key
// is SIGKILLed and restarted warm: a freshly discovered client must get
// bit-identical answers, and the daemon must have restored its store
// with zero re-index RPCs, an empty catch-up and full replica coverage.
func TCPIngestResume(tr transport.Transport, addrs []string, kill, restart func(i int) error,
	opts ClusterOpts, progress Progress) (*IngestResumeReport, error) {
	f, err := newFixture(tr, addrs, opts, 0, progress)
	if err != nil {
		return nil, err
	}
	c, members := f.c, f.c.Members()
	rep := &IngestResumeReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: f.col.M(), Queries: len(f.queries), ChunkBytes: c.ChunkTarget(),
	}

	// Victim: the second ring member (any would do; a fixed choice keeps
	// the scenario deterministic).
	const victimRing = 1
	victim := members[victimRing]
	if rep.VictimIdx, err = f.procOf(victim.Addr()); err != nil {
		return nil, err
	}

	const session = 1
	ingestStart := time.Now()
	for i, m := range members {
		if i == victimRing {
			continue
		}
		if _, err := c.Ingest(m.Addr(), shardIngestSource(f.col, f.cfg, session, i, len(members))); err != nil {
			return nil, fmt.Errorf("experiments: ingest shard %d to %s: %w", i, m.Addr(), err)
		}
	}

	// The victim's upload, interrupted after exactly killAfterChunks
	// acked chunks — then SIGKILL. fsync=always means those acked chunks
	// are on disk and nothing else is.
	src := shardIngestSource(f.col, f.cfg, session, victimRing, len(members))
	src.OnChunk = func(acked int) error {
		if acked >= killAfterChunks {
			return errIngestInterrupted
		}
		return nil
	}
	st, err := c.Ingest(victim.Addr(), src)
	if err == nil {
		return nil, fmt.Errorf("experiments: victim upload finished in %d chunks before the interruption point (%d) — shrink the chunk target", st.Chunks, killAfterChunks)
	}
	if st.ChunksSent != killAfterChunks {
		return nil, fmt.Errorf("experiments: interrupted upload acked %d chunks, want %d", st.ChunksSent, killAfterChunks)
	}
	rep.KillAfterChunks = st.ChunksSent
	f.progress("ingest-resume: SIGKILL process %d (%s) holding %d acked chunks", rep.VictimIdx, victim.Addr(), st.ChunksSent)
	if err := kill(rep.VictimIdx); err != nil {
		return nil, fmt.Errorf("kill process %d: %w", rep.VictimIdx, err)
	}
	if err := restart(rep.VictimIdx); err != nil {
		return nil, fmt.Errorf("restart process %d: %w", rep.VictimIdx, err)
	}

	// Resume the SAME session against the restarted daemon: begin
	// reports the durably held prefix, the digest negotiation pulls only
	// the tail.
	st2, err := c.Ingest(victim.Addr(), shardIngestSource(f.col, f.cfg, session, victimRing, len(members)))
	if err != nil {
		return nil, fmt.Errorf("experiments: resumed ingest: %w", err)
	}
	rep.VictimChunks = st2.Chunks
	rep.ResumeSkipped = st2.ChunksSkipped
	if resent := rep.KillAfterChunks + st2.ChunksSent - st2.Chunks; resent > 0 {
		rep.ResumeResent = resent
	}
	rep.IngestNanos = time.Since(ingestStart).Nanoseconds()
	f.progress("ingest-resume: resumed session skipped %d of %d chunks, re-sent %d acked chunks",
		rep.ResumeSkipped, rep.VictimChunks, rep.ResumeResent)

	buildStart := time.Now()
	if err := c.BuildRemote(addrs[0], nil); err != nil {
		return nil, fmt.Errorf("experiments: remote build after resume: %w", err)
	}
	rep.BuildNanos = time.Since(buildStart).Nanoseconds()
	// Before any further restart: a restart resets that daemon's
	// histograms.
	if err := checkBuildRoundSeries(tr, addrs, f.cfg.SMax); err != nil {
		rep.RoundSeriesFault = err.Error()
	}

	// Bit-identity: the interrupted-then-resumed streamed build must
	// answer exactly like the never-interrupted in-process engine, with
	// coordinators rotating so probes hit the restarted daemon too.
	for i, req := range f.requests(false) {
		res, _, err := c.SearchVia(addrs[i%len(addrs)], req)
		if err != nil {
			return nil, fmt.Errorf("post-build query %d: %w", i, err)
		}
		if !reflect.DeepEqual(f.want[i], res.Results) {
			rep.Mismatches++
		}
	}
	f.progress("ingest-resume: %d/%d queries bit-identical to the in-process reference",
		len(f.queries)-rep.Mismatches, len(f.queries))

	// Warm restart: SIGKILL the member owning a probed key and restart
	// it from its data directory.
	owner, idx, err := f.probedOwner()
	if err != nil {
		return nil, err
	}
	rep.RestartIdx = idx
	f.progress("restart: SIGKILL process %d (%s), then warm restart from its data dir", idx, owner.Addr())
	restartStart := time.Now()
	if err := kill(idx); err != nil {
		return nil, fmt.Errorf("kill process %d: %w", idx, err)
	}
	if err := restart(idx); err != nil {
		return nil, fmt.Errorf("restart process %d: %w", idx, err)
	}
	rep.RestartNanos = time.Since(restartStart).Nanoseconds()

	// A fresh client discovery must find the full membership again, and
	// a fresh client-fabric engine over it must reproduce the reference
	// bit for bit — probes landing on the restarted daemon are served
	// from its restored store.
	seed := addrs[(idx+1)%len(addrs)]
	c2, err := cluster.Dial(cluster.Options{Transport: tr, Seed: seed})
	if err != nil {
		return nil, fmt.Errorf("post-restart discovery: %w", err)
	}
	if c2.Size() != opts.Nodes {
		return nil, fmt.Errorf("post-restart discovery via %s: %d members, want %d", seed, c2.Size(), opts.Nodes)
	}
	eng2, err := core.NewEngine(c2, f.cfg, f.full.Vocab, f.full.TermFrequencies())
	if err != nil {
		return nil, err
	}
	for i, q := range f.queries {
		res, err := eng2.Search(q, c2.Members()[0], opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("post-restart query %d: %w", i, err)
		}
		if !reflect.DeepEqual(f.want[i], res.Results) {
			rep.PostMismatches++
		}
	}
	rep.UnderAfterRestart = c2.Audit(opts.Replicas).UnderReplicated
	info, err := cluster.FetchInfo(tr, owner.Addr())
	if err != nil {
		return nil, fmt.Errorf("restarted daemon info: %w", err)
	}
	rep.Warm, rep.RestoredKeys, rep.InsertRPCs = info.Warm, info.Keys, info.InsertRPCs
	rep.CatchUpStale, rep.CatchUpPulled = info.CatchUpStale, info.CatchUpPulled
	f.progress("restart: %d/%d post-restart queries bit-identical, %d keys restored, %d insert RPCs, %d copies pulled, %d under-replicated",
		len(f.queries)-rep.PostMismatches, len(f.queries), rep.RestoredKeys, rep.InsertRPCs, rep.CatchUpPulled, rep.UnderAfterRestart)
	return rep, nil
}

// checkBuildRoundSeries scrapes every daemon after a daemon-coordinated
// build of smax rounds and holds the round breakdown to exact
// accounting: each daemon ran each round once, so each of the three
// per-round histograms (generation, insert pass, wait for the barrier
// to learn of the finished pass) must carry exactly one observation per
// daemon per round — a series that went missing or double-counts fails
// the scenario.
func checkBuildRoundSeries(tr transport.Transport, addrs []string, smax int) error {
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
		for round := 1; round <= smax; round++ {
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

// Fprint renders the durability scenario report.
func (r *IngestResumeReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Ingest resume + warm restart — %d hdknode processes, R=%d, %d docs, %d queries, %d-byte chunks\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries, r.ChunkBytes)
	fmt.Fprintf(w, "victim %d: killed holding %d acked chunks; resume skipped %d/%d, re-sent %d\n",
		r.VictimIdx, r.KillAfterChunks, r.ResumeSkipped, r.VictimChunks, r.ResumeResent)
	fmt.Fprintf(w, "parity: %d/%d post-build queries bit-identical | ingest %.2fms, build %.2fms\n",
		r.Queries-r.Mismatches, r.Queries, float64(r.IngestNanos)/1e6, float64(r.BuildNanos)/1e6)
	fmt.Fprintf(w, "restart %d: warm=%v, %d keys restored, %d insert RPCs since restart, catch-up %d stale / %d pulled, %d under-replicated, %d/%d post-restart bit-identical | kill→ready %.2fms\n",
		r.RestartIdx, r.Warm, r.RestoredKeys, r.InsertRPCs, r.CatchUpStale, r.CatchUpPulled, r.UnderAfterRestart,
		r.Queries-r.PostMismatches, r.Queries, float64(r.RestartNanos)/1e6)
}
