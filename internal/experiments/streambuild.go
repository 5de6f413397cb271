package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file drives the streamed coordinator-side build path: a thin
// client ships every daemon its corpus shard over the chunked,
// resumable hdk.ingest session and any daemon coordinates the
// round-synchronous hdk.build — the client never holds the collection
// and never runs a round. TCPIngestResume is the crash scenario behind
// the resume gate (SIGKILL mid-upload, restart from the data dir,
// resume with zero re-shipped acked chunks, bit-identical final index);
// bench/ times the same path end to end.

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

// IngestResumeReport is the crash-resume scenario's measurement.
type IngestResumeReport struct {
	Nodes      int
	Replicas   int
	Docs       int
	Queries    int
	ChunkBytes int

	VictimIdx       int // process index SIGKILLed mid-upload
	VictimChunks    int // chunks the victim's shard packs into
	KillAfterChunks int // chunks acked when the daemon was killed
	ResumeSkipped   int // chunks the restarted daemon already held (must == KillAfterChunks)
	ResumeResent    int // acked chunks shipped again on resume (must be 0)

	// Ranked-result parity of the post-crash streamed build vs the
	// never-interrupted in-process engine (must be 0).
	Mismatches int

	IngestNanos int64
	BuildNanos  int64
}

// Clean reports whether every resume gate held.
func (r *IngestResumeReport) Clean() bool {
	return r.ResumeResent == 0 && r.ResumeSkipped == r.KillAfterChunks && r.Mismatches == 0
}

// ingestResumeChunkBytes keeps the e2e shards many chunks wide so the
// mid-upload interruption point (killAfterChunks) is well inside the
// stream.
const ingestResumeChunkBytes = 2 << 10

// killAfterChunks is where the scenario interrupts the victim's upload:
// the client stops after this many acked chunks and the daemon is
// SIGKILLed holding exactly that prefix durably.
const killAfterChunks = 5

// errIngestInterrupted is the deliberate client-side abort the scenario
// injects through IngestSource.OnChunk.
var errIngestInterrupted = fmt.Errorf("experiments: deliberate mid-upload interruption")

// TCPIngestResume runs the streamed-build crash scenario against a live
// durable cluster (hdknode -data -fsync always): every shard but one is
// streamed in full, the victim's upload is stopped after exactly
// killAfterChunks acked chunks and its daemon SIGKILLed, the daemon
// restarts from its data directory, and the client resumes the SAME
// session — which must skip exactly the acked prefix and re-ship zero
// of it. The interrupted-then-resumed cluster then runs the
// daemon-coordinated build, and its ranked results must be
// bit-identical to the never-interrupted in-process reference.
func TCPIngestResume(tr transport.Transport, addrs []string, kill, restart func(i int) error,
	opts TCPClusterOpts, progress Progress) (*IngestResumeReport, error) {
	if progress == nil {
		progress = nopProgress
	}
	if len(addrs) != opts.Nodes {
		return nil, fmt.Errorf("experiments: %d addresses for %d nodes", len(addrs), opts.Nodes)
	}

	col, err := corpus.Generate(corpus.GenParams{
		NumDocs: opts.Docs, VocabSize: 2000, AvgDocLen: 50,
		Skew: 1.0, NumTopics: 8, TopicTerms: 80, TopicMix: 0.5, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	qp := corpus.DefaultQueryParams(opts.Queries)
	qp.MinHits = 2
	queries, err := corpus.GenerateQueries(col, qp, opts.Window, cen.ConjunctiveHits)
	if err != nil {
		return nil, fmt.Errorf("query generation: %w", err)
	}
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = opts.DFMax
	cfg.Window = opts.Window
	cfg.ReplicationFactor = opts.Replicas

	// The never-interrupted in-process reference the final index must
	// reproduce bit for bit.
	ref, err := buildInProcReference(col, opts.Nodes, cfg)
	if err != nil {
		return nil, err
	}
	refOrigin := ref.Network().Members()[0]
	intact := make([][]rank.Result, len(queries))
	for i, q := range queries {
		res, err := ref.Search(q, refOrigin, opts.TopK)
		if err != nil {
			return nil, err
		}
		intact[i] = res.Results
	}

	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs, ChunkBytes: ingestResumeChunkBytes})
	if err != nil {
		return nil, err
	}
	members := c.Members()
	rep := &IngestResumeReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: col.M(), Queries: len(queries), ChunkBytes: ingestResumeChunkBytes,
	}

	// Victim: the second ring member (any would do; a fixed choice keeps
	// the scenario deterministic). Map it back to its process index.
	const victimRing = 1
	victim := members[victimRing]
	rep.VictimIdx = -1
	for i, a := range addrs {
		if a == victim.Addr() {
			rep.VictimIdx = i
		}
	}
	if rep.VictimIdx < 0 {
		return nil, fmt.Errorf("experiments: victim %s not in address list", victim.Addr())
	}

	const session = 1
	ingestStart := time.Now()
	for i, m := range members {
		if i == victimRing {
			continue
		}
		if _, err := c.Ingest(m.Addr(), shardIngestSource(col, cfg, session, i, len(members))); err != nil {
			return nil, fmt.Errorf("experiments: ingest shard %d to %s: %w", i, m.Addr(), err)
		}
	}

	// The victim's upload, interrupted after exactly killAfterChunks
	// acked chunks — then SIGKILL. fsync=always means those acked chunks
	// are on disk and nothing else is.
	src := shardIngestSource(col, cfg, session, victimRing, len(members))
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
	progress("ingest-resume: SIGKILL process %d (%s) holding %d acked chunks", rep.VictimIdx, victim.Addr(), st.ChunksSent)
	if err := kill(rep.VictimIdx); err != nil {
		return nil, fmt.Errorf("kill process %d: %w", rep.VictimIdx, err)
	}
	if err := restart(rep.VictimIdx); err != nil {
		return nil, fmt.Errorf("restart process %d: %w", rep.VictimIdx, err)
	}

	// Resume the SAME session against the restarted daemon: begin
	// reports the durably held prefix, the digest negotiation pulls only
	// the tail.
	st2, err := c.Ingest(victim.Addr(), shardIngestSource(col, cfg, session, victimRing, len(members)))
	if err != nil {
		return nil, fmt.Errorf("experiments: resumed ingest: %w", err)
	}
	rep.VictimChunks = st2.Chunks
	rep.ResumeSkipped = st2.ChunksSkipped
	if resent := rep.KillAfterChunks + st2.ChunksSent - st2.Chunks; resent > 0 {
		rep.ResumeResent = resent
	}
	rep.IngestNanos = time.Since(ingestStart).Nanoseconds()
	progress("ingest-resume: resumed session skipped %d of %d chunks, re-sent %d acked chunks",
		rep.ResumeSkipped, rep.VictimChunks, rep.ResumeResent)

	buildStart := time.Now()
	if err := c.BuildRemote(addrs[0], nil); err != nil {
		return nil, fmt.Errorf("experiments: remote build after resume: %w", err)
	}
	rep.BuildNanos = time.Since(buildStart).Nanoseconds()

	// Bit-identity: the interrupted-then-resumed streamed build must
	// answer exactly like the never-interrupted in-process engine, with
	// coordinators rotating so probes hit the restarted daemon too.
	for i, q := range queries {
		res, _, err := c.SearchVia(addrs[i%len(addrs)], core.SearchRequest{Terms: ref.QueryTerms(q), K: opts.TopK})
		if err != nil {
			return nil, fmt.Errorf("post-build query %d: %w", i, err)
		}
		if !reflect.DeepEqual(intact[i], res.Results) {
			rep.Mismatches++
		}
	}
	progress("ingest-resume: %d/%d queries bit-identical to the in-process reference",
		len(queries)-rep.Mismatches, len(queries))
	return rep, nil
}

// Fprint renders the ingest-resume scenario report.
func (r *IngestResumeReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Ingest resume — %d hdknode processes, R=%d, %d docs, %d queries, %d-byte chunks\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries, r.ChunkBytes)
	fmt.Fprintf(w, "victim %d: killed holding %d acked chunks; resume skipped %d/%d, re-sent %d\n",
		r.VictimIdx, r.KillAfterChunks, r.ResumeSkipped, r.VictimChunks, r.ResumeResent)
	fmt.Fprintf(w, "parity: %d/%d post-build queries bit-identical | ingest %.2fms, build %.2fms\n",
		r.Queries-r.Mismatches, r.Queries, float64(r.IngestNanos)/1e6, float64(r.BuildNanos)/1e6)
}
