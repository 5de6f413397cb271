package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"maps"
	"slices"
	"sort"

	"repro/internal/corpus"
)

// Server-side hdk.ingest session machinery: a daemon receives its corpus
// shard as a resumable chunk stream, durably logs every acknowledged
// chunk (log-first, so with fsync=always an acked chunk survives
// SIGKILL), and materializes the shard at commit. The configure is a
// begin that carries no shard — configuration only, zero chunks, and it
// commits itself — so the daemon has exactly ONE entry point deciding
// whether (re)configuration is admissible.

// Typed rejections for (re)configuration and ingest admission. They
// cross the wire as status bytes on SUCCESS response frames (a handler
// error would arrive as an opaque string) and are rehydrated client-side
// wrapped around these sentinels, so callers use errors.Is — the same
// contract core.ErrOverloaded established for admission shedding.
var (
	// ErrAlreadyBuilt: the daemon's store already holds a built index.
	// Re-running a build against it would double document frequencies
	// and silently flip HDKs to NDKs; rebuild on fresh stores (a durable
	// daemon warm-restarts populated and is refused again).
	ErrAlreadyBuilt = errors.New("cluster: daemon already holds a built index")
	// ErrConfigMismatch: the daemon is configured (or mid-ingest) with a
	// different configuration or session geometry than the request's.
	ErrConfigMismatch = errors.New("cluster: daemon already configured differently")
)

// Durable record kinds for ingest session state. Payloads are the exact
// frame bodies off the wire (minus the frame-kind byte, implied by the
// record kind), so replay runs the same decoders as serving.
const (
	durIngestBegin  = "ingest.begin"
	durIngestChunk  = "ingest.chunk"
	durIngestCommit = "ingest.commit"
)

// ingestSession is one upload session's server-side state. Chunks stay
// resident after commit: they are the durable-compaction source (the
// snapshot header re-emits the committed session so the shard survives
// op-log truncation) and what a resumed begin reports as held.
type ingestSession struct {
	begin     ingestBegin
	chunks    map[uint64][]byte // seq -> payload
	digests   map[uint64]uint64 // seq -> chunkDigest(payload)
	committed bool
}

// handleIngest dispatches one hdk.ingest frame.
func (s *Server) handleIngest(payload []byte) ([]byte, error) {
	if len(payload) == 0 {
		return nil, errCorruptFrame
	}
	body := payload[1:]
	switch payload[0] {
	case ingestFrameBegin:
		b, err := decodeIngestBegin(body)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		status, held, err := s.ingestBeginLocked(b, body, true)
		if err != nil {
			return nil, err
		}
		return encodeIngestBeginResp(status, held), nil
	case ingestFrameChunk:
		c, err := decodeIngestChunk(body)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, s.ingestChunkLocked(c, body, true)
	case ingestFrameCommit:
		c, err := decodeIngestCommit(body)
		if err != nil {
			return nil, err
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		return nil, s.ingestCommitLocked(c, body, true)
	}
	return nil, errCorruptFrame
}

// ingestBeginLocked opens, resumes or rejects a session, returning the
// digests of the chunks it already holds (by sequence number). Rejections
// are in-band statuses, not errors: the client turns them into the typed
// sentinels. A begin that carries no shard is the configure: re-sent with
// the configuration the store already has, before a build, it is a no-op
// that leaves a streamed session still in progress in place; otherwise
// it creates the store and commits itself. durably=false on replay (the
// record is already on disk). Caller holds s.mu.
func (s *Server) ingestBeginLocked(b ingestBegin, raw []byte, durably bool) (status byte, held map[uint64]uint64, err error) {
	cfg, canon, err := canonicalConfig(b.Config)
	if err != nil {
		return 0, nil, err
	}
	shardless := b.VocabSize == 0 && b.ShardDocs == 0
	if s.store != nil {
		if !bytes.Equal(s.configJSON, canon) {
			return cfgStatusMismatch, nil, nil
		}
		if s.store.Populated() {
			return cfgStatusAlreadyBuilt, nil, nil
		}
		if shardless {
			return cfgStatusOK, nil, nil // idempotent configure during bootstrap
		}
		if ses := s.ingest; ses != nil && ses.begin.Session == b.Session {
			// Resume — committed sessions included: a client whose commit
			// ack was lost re-runs the whole session and must ship zero
			// chunks, not start over. The chunk geometry must match or the
			// re-streamed shard chunks to different digests and the
			// client would quietly re-ship everything.
			if ses.begin.ChunkBytes != b.ChunkBytes || ses.begin.ShardDocs != b.ShardDocs || ses.begin.VocabSize != b.VocabSize {
				return cfgStatusMismatch, nil, nil
			}
			return cfgStatusOK, ses.digests, nil
		}
		// Configured but unpopulated with a different/fresh session id: a
		// client abandoning a half-finished upload and starting over.
		// Fall through and replace the session state.
	} else if err := cfg.Validate(); err != nil {
		return 0, nil, err
	}
	// Log-first: the begin record must be durable before the store exists
	// and starts logging mutations, so a warm restart recreates the store
	// before replaying them.
	if durably && s.dur != nil {
		if err := s.dur.Append(durIngestBegin, raw); err != nil {
			return 0, nil, fmt.Errorf("cluster: %s: persist ingest begin: %w", s.addr, err)
		}
	}
	if s.store == nil {
		if err := s.configureLocked(b.Config); err != nil {
			return 0, nil, err
		}
	}
	s.ingest = &ingestSession{
		begin:   b,
		chunks:  make(map[uint64][]byte),
		digests: make(map[uint64]uint64),
	}
	if shardless {
		// The begin record alone replays the configure, so the commit is
		// not logged; a data dir whose configure also logged one replays
		// it as a verified duplicate.
		commit := ingestCommit{Session: b.Session, Digest: sessionDigest(nil)}
		if err := s.ingestCommitLocked(commit, nil, false); err != nil {
			return 0, nil, err
		}
	}
	return cfgStatusOK, nil, nil
}

// ingestChunkLocked installs one chunk, logging it before the ack so an
// acknowledged chunk is crash-proof. A duplicate of an already-held
// chunk acks without re-appending. Caller holds s.mu.
func (s *Server) ingestChunkLocked(c ingestChunk, raw []byte, durably bool) error {
	ses := s.ingest
	if ses == nil || ses.begin.Session != c.Session {
		return fmt.Errorf("cluster: %s: no ingest session %d", s.addr, c.Session)
	}
	d := chunkDigest(c.Payload)
	if have, ok := ses.digests[c.Seq]; ok {
		if have == d {
			return nil // duplicate delivery (retry, or a redundant resend)
		}
		if ses.committed {
			return fmt.Errorf("cluster: %s: ingest chunk %d differs from committed session %d", s.addr, c.Seq, c.Session)
		}
	} else if ses.committed {
		return fmt.Errorf("cluster: %s: ingest session %d already committed", s.addr, c.Session)
	}
	if durably && s.dur != nil {
		if err := s.dur.Append(durIngestChunk, raw); err != nil {
			return fmt.Errorf("cluster: %s: persist ingest chunk: %w", s.addr, err)
		}
	}
	ses.chunks[c.Seq] = append([]byte(nil), c.Payload...)
	ses.digests[c.Seq] = d
	s.metrics.ingestChunks.Inc()
	s.metrics.ingestBytes.Add(uint64(len(c.Payload)))
	return nil
}

// ingestCommitLocked verifies session completeness (exact chunk count,
// digest over every chunk in sequence order) and materializes the shard.
// Idempotent for a matching re-send. Caller holds s.mu.
func (s *Server) ingestCommitLocked(c ingestCommit, raw []byte, durably bool) error {
	ses := s.ingest
	if ses == nil || ses.begin.Session != c.Session {
		return fmt.Errorf("cluster: %s: no ingest session %d", s.addr, c.Session)
	}
	if uint64(len(ses.chunks)) != c.Chunks {
		return fmt.Errorf("cluster: %s: ingest session %d holds %d of %d chunks at commit", s.addr, c.Session, len(ses.chunks), c.Chunks)
	}
	ordered := make([]uint64, 0, c.Chunks)
	for seq := uint64(0); seq < c.Chunks; seq++ {
		d, ok := ses.digests[seq]
		if !ok {
			return fmt.Errorf("cluster: %s: ingest session %d missing chunk %d at commit", s.addr, c.Session, seq)
		}
		ordered = append(ordered, d)
	}
	if sessionDigest(ordered) != c.Digest {
		return fmt.Errorf("cluster: %s: ingest session %d digest mismatch at commit", s.addr, c.Session)
	}
	if ses.committed {
		return nil // duplicate commit of a verified session
	}
	if durably && s.dur != nil {
		if err := s.dur.Append(durIngestCommit, raw); err != nil {
			return fmt.Errorf("cluster: %s: persist ingest commit: %w", s.addr, err)
		}
	}
	if err := s.materializeLocked(ses); err != nil {
		return err
	}
	ses.committed = true
	return nil
}

// materializeLocked reassembles the session's chunks into the daemon's
// corpus shard. Chunks are self-contained and order-independent, so the
// pass runs in sequence order for determinism but any upload order
// (including the shuffled-order property test's) yields the identical
// shard. Caller holds s.mu.
func (s *Server) materializeLocked(ses *ingestSession) error {
	b := ses.begin
	if b.VocabSize == 0 && b.ShardDocs == 0 && len(ses.chunks) == 0 {
		return nil // degenerate configure-only session: the store exists, done
	}
	vocab := make([]string, b.VocabSize)
	freqs := make([]int, b.VocabSize)
	docs := make([]corpus.Document, 0, b.ShardDocs)
	var err error
	for _, seq := range slices.Sorted(maps.Keys(ses.chunks)) {
		payload := ses.chunks[seq]
		if len(payload) == 0 {
			return fmt.Errorf("cluster: %s: empty ingest chunk %d", s.addr, seq)
		}
		switch payload[0] {
		case chunkKindMeta:
			err = decodeMetaChunk(payload[1:], vocab, freqs)
		case chunkKindDocs:
			docs, err = decodeDocsChunk(payload[1:], b.VocabSize, docs)
		default:
			err = errCorruptFrame
		}
		if err != nil {
			return fmt.Errorf("cluster: %s: ingest chunk %d: %w", s.addr, seq, err)
		}
	}
	for i, t := range vocab {
		if t == "" {
			return fmt.Errorf("cluster: %s: ingest session %d vocabulary slot %d never shipped", s.addr, b.Session, i)
		}
	}
	if uint64(len(docs)) != b.ShardDocs {
		return fmt.Errorf("cluster: %s: ingest session %d materialized %d of %d documents", s.addr, b.Session, len(docs), b.ShardDocs)
	}
	// The shard is document-id sorted regardless of chunk packing — the
	// peer's AddDocuments contract, and what makes chunk arrival order
	// irrelevant to the built index.
	sort.Slice(docs, func(i, j int) bool { return docs[i].ID < docs[j].ID })
	for i := 1; i < len(docs); i++ {
		if docs[i].ID == docs[i-1].ID {
			return fmt.Errorf("cluster: %s: ingest session %d shipped document %d twice", s.addr, b.Session, docs[i].ID)
		}
	}
	s.shard = &corpus.Collection{Vocab: vocab, Docs: docs}
	s.shardFreqs = freqs
	return nil
}

// replayIngestRecord applies one recovered ingest record during durable
// replay. Caller holds s.mu.
func (s *Server) replayIngestRecord(kind string, payload []byte) error {
	switch kind {
	case durIngestBegin:
		b, err := decodeIngestBegin(payload)
		if err != nil {
			return err
		}
		status, _, err := s.ingestBeginLocked(b, payload, false)
		if err != nil {
			return err
		}
		if status != cfgStatusOK {
			return fmt.Errorf("cluster: %s: replayed ingest begin rejected (status %d)", s.addr, status)
		}
		return nil
	case durIngestChunk:
		c, err := decodeIngestChunk(payload)
		if err != nil {
			return err
		}
		return s.ingestChunkLocked(c, payload, false)
	case durIngestCommit:
		c, err := decodeIngestCommit(payload)
		if err != nil {
			return err
		}
		return s.ingestCommitLocked(c, payload, false)
	}
	return fmt.Errorf("cluster: unknown ingest record kind %q", kind)
}

// ingestHeaderLocked re-emits the current session — begin, chunks in
// sequence order, commit if committed — at the head of a compacted
// snapshot, so op-log truncation can never drop the corpus shard (or a
// half-finished session's acked chunks) a resumed begin still reports. Caller holds s.mu.
func (s *Server) ingestHeaderLocked(emit func(kind string, payload []byte) error) error {
	ses := s.ingest
	if err := emit(durIngestBegin, encodeIngestBegin(ses.begin)[1:]); err != nil {
		return err
	}
	seqs := slices.Sorted(maps.Keys(ses.chunks))
	ordered := make([]uint64, 0, len(seqs))
	for _, seq := range seqs {
		frame := encodeIngestChunk(ingestChunk{Session: ses.begin.Session, Seq: seq, Payload: ses.chunks[seq]})
		if err := emit(durIngestChunk, frame[1:]); err != nil {
			return err
		}
		ordered = append(ordered, ses.digests[seq])
	}
	if !ses.committed {
		return nil
	}
	commit := ingestCommit{Session: ses.begin.Session, Chunks: uint64(len(seqs)), Digest: sessionDigest(ordered)}
	return emit(durIngestCommit, encodeIngestCommit(commit)[1:])
}
