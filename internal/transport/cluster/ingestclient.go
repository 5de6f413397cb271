package cluster

import (
	"encoding/json"
	"fmt"

	"repro/internal/core"
	"repro/internal/corpus"
)

// Thin-client side of the streamed build: Ingest pipes one daemon's
// corpus shard through the chunked hdk.ingest session (never holding
// more than one chunk in memory), and BuildRemote kicks off the
// daemon-coordinated hdk.build and polls its progress. Together they
// replace the fat-client path: the client runs no build round.

// IngestSource describes one daemon's shard for Ingest. Docs yields the
// shard's documents in ascending id order, one at a time — a corpus
// streamed from disk or regenerated deterministically never needs to be
// resident. A RESUMED upload must present identical content, session id
// and chunking (the daemon verifies the geometry at begin and every
// chunk by digest).
type IngestSource struct {
	// Session identifies the upload; a client resuming after a daemon
	// (or client) crash reuses the id to inherit the acked chunks.
	Session uint64
	// Config is the engine configuration every daemon must agree on.
	Config core.Config
	// Vocab and TermFreqs are the collection-GLOBAL vocabulary and term
	// frequencies: the build's Ff cutoff and BM25 statistics are global
	// even though each daemon holds one shard.
	Vocab     []string
	TermFreqs []int
	// TotalDocs is the corpus-wide document count; ShardDocs how many
	// documents Docs will yield.
	TotalDocs int
	ShardDocs int
	// Docs is the shard iterator: next document, or ok=false when done.
	Docs func() (corpus.Document, bool)
	// OnChunk, when non-nil, is observed after every chunk this call
	// ships and the daemon acks (acked counts this call's shipments
	// only). A non-nil return aborts the upload mid-session — the
	// session stays resumable on the daemon. Progress displays use it;
	// so do crash harnesses that need a deterministic interruption
	// point.
	OnChunk func(acked int) error
}

// ShardSource is the IngestSource for ring member idx of n over a
// resident collection: document j goes to member j%n (the
// SplitRoundRobin placement the in-process build uses), with the
// collection-global vocabulary and frequencies. The iterator strides
// over col one document at a time.
func ShardSource(col *corpus.Collection, cfg core.Config, session uint64, idx, n int) IngestSource {
	j := idx
	return IngestSource{
		Session:   session,
		Config:    cfg,
		Vocab:     col.Vocab,
		TermFreqs: col.TermFrequencies(),
		TotalDocs: col.M(),
		ShardDocs: (len(col.Docs) - idx + n - 1) / n,
		Docs: func() (corpus.Document, bool) {
			if j >= len(col.Docs) {
				return corpus.Document{}, false
			}
			d := col.Docs[j]
			j += n
			return d, true
		},
	}
}

// IngestStats reports one Ingest call's traffic. On a fresh session
// ChunksSent == Chunks; on a resume ChunksSkipped counts the chunks the
// daemon already held durably — acked chunks are never re-shipped.
type IngestStats struct {
	Chunks        int    // chunks the shard packs into
	ChunksSent    int    // chunks actually shipped this call
	ChunksSkipped int    // chunks the daemon already held (resume)
	Bytes         uint64 // payload bytes shipped this call
	Docs          int    // documents streamed
}

// chunkGen packs the source into self-contained chunks: vocabulary
// ranges first, then documents, each chunk grown to the payload target.
// The packing is a pure function of the source content and the target,
// so a resumed client regenerates byte-identical chunks — the property
// skipping held chunks by digest rests on.
type chunkGen struct {
	src      IngestSource
	target   int
	vocabPos int
	docsDone bool
}

func (g *chunkGen) next() ([]byte, bool) {
	if g.vocabPos < len(g.src.Vocab) {
		first := g.vocabPos
		end := first
		size := 0
		for end < len(g.src.Vocab) && size < g.target {
			size += len(g.src.Vocab[end]) + 6 // term bytes + uvarint bounds
			end++
		}
		g.vocabPos = end
		return encodeMetaChunk(first, g.src.Vocab[first:end], g.src.TermFreqs[first:end]), true
	}
	if g.docsDone {
		return nil, false
	}
	buf := newDocsChunk()
	for len(buf) < g.target {
		d, ok := g.src.Docs()
		if !ok {
			g.docsDone = true
			break
		}
		buf = encodeDocsChunkDoc(buf, d)
	}
	if len(buf) == 1 {
		return nil, false // docs exhausted exactly at the last boundary
	}
	return buf, true
}

// Ingest streams one shard to the daemon at addr over a resumable
// hdk.ingest session: a begin (idempotent; a resumed session inherits
// the daemon's durably held chunks, reported with their digests), then
// each chunk in sequence order — skipped when the daemon holds it with
// the same digest, otherwise shipped CRC'd and acked after the daemon's
// durable append — and a commit that verifies the whole session by
// digest before the daemon materializes the shard.
func (c *Client) Ingest(addr string, src IngestSource) (IngestStats, error) {
	var st IngestStats
	if len(src.Vocab) != len(src.TermFreqs) {
		return st, fmt.Errorf("cluster: ingest: vocab (%d) and term freqs (%d) lengths differ", len(src.Vocab), len(src.TermFreqs))
	}
	if src.Docs == nil {
		src.Docs = func() (corpus.Document, bool) { return corpus.Document{}, false }
	}
	cfgJSON, err := json.Marshal(src.Config)
	if err != nil {
		return st, err
	}
	held, err := c.ingestBegin(addr, ingestBegin{
		Session:    src.Session,
		Config:     cfgJSON,
		TotalDocs:  uint64(src.TotalDocs),
		ShardDocs:  uint64(src.ShardDocs),
		VocabSize:  uint64(len(src.Vocab)),
		ChunkBytes: uint64(c.chunkTarget),
	})
	if err != nil {
		return st, err
	}

	gen := &chunkGen{src: src, target: c.chunkTarget}
	var digests []uint64
	for seq := uint64(0); ; seq++ {
		payload, ok := gen.next()
		if !ok {
			break
		}
		d := chunkDigest(payload)
		digests = append(digests, d)
		if have, ok := held[seq]; ok && have == d {
			st.ChunksSkipped++
			continue
		}
		chunk := ingestChunk{Session: src.Session, Seq: seq, Payload: payload}
		if _, err := c.CallService(addr, SvcIngest, encodeIngestChunk(chunk)); err != nil {
			return st, fmt.Errorf("cluster: ingest chunk %d at %s: %w", seq, addr, err)
		}
		st.ChunksSent++
		st.Bytes += uint64(len(payload))
		if src.OnChunk != nil {
			if err := src.OnChunk(st.ChunksSent); err != nil {
				return st, fmt.Errorf("cluster: ingest to %s aborted: %w", addr, err)
			}
		}
	}
	st.Chunks = len(digests)
	st.Docs = src.ShardDocs
	commit := ingestCommit{Session: src.Session, Chunks: uint64(len(digests)), Digest: sessionDigest(digests)}
	if _, err := c.CallService(addr, SvcIngest, encodeIngestCommit(commit)); err != nil {
		return st, fmt.Errorf("cluster: ingest commit at %s: %w", addr, err)
	}
	return st, nil
}

// ingestBegin sends one hdk.ingest begin and returns the digests of the
// chunks the daemon already holds for the session, by sequence number.
// A rejection comes back as its typed sentinel.
func (c *Client) ingestBegin(addr string, b ingestBegin) (map[uint64]uint64, error) {
	raw, err := c.CallService(addr, SvcIngest, encodeIngestBegin(b))
	if err != nil {
		return nil, fmt.Errorf("cluster: ingest begin at %s: %w", addr, err)
	}
	status, held, err := decodeIngestBeginResp(raw)
	if err != nil {
		return nil, fmt.Errorf("cluster: ingest begin at %s: %w", addr, err)
	}
	switch status {
	case cfgStatusOK:
		return held, nil
	case cfgStatusAlreadyBuilt:
		return nil, fmt.Errorf("cluster: %s: %w", addr, ErrAlreadyBuilt)
	case cfgStatusMismatch:
		return nil, fmt.Errorf("cluster: %s: %w", addr, ErrConfigMismatch)
	}
	return nil, fmt.Errorf("cluster: %s: unknown ingest begin status %d", addr, status)
}

// BuildRemote asks the daemon at addr to coordinate the whole
// round-synchronous build over every member's ingested shard, then
// follows it until the coordinator reports done or failed. The start
// is idempotent — a reconnecting client observes the running build
// instead of forking a second one — and a repeated start of a running
// build blocks at the daemon until the build's round or state moves
// (about a second at most), so following costs one look at cluster.info
// per change instead of a poll loop. progress, when non-nil, receives
// every Info looked at (BuildRound advances 1..SMax).
func (c *Client) BuildRemote(addr string, progress func(Info)) error {
	for {
		raw, err := c.CallService(addr, SvcBuild, encodeBuildStart())
		if err != nil {
			return fmt.Errorf("cluster: build start at %s: %w", addr, err)
		}
		if len(raw) != 1 {
			return fmt.Errorf("cluster: build start at %s: %w", addr, errCorruptFrame)
		}
		info, err := FetchInfo(c.tr, addr)
		if err != nil {
			return fmt.Errorf("cluster: build progress at %s: %w", addr, err)
		}
		if progress != nil {
			progress(info)
		}
		switch info.BuildState {
		case "done":
			return nil
		case "failed":
			return fmt.Errorf("cluster: build failed at %s: %s", addr, info.BuildError)
		}
	}
}
