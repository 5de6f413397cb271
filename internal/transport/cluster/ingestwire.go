package cluster

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"hash/fnv"
	"maps"
	"slices"

	"repro/internal/corpus"
	"repro/internal/wire"
)

// Wire codecs for the streamed build services. hdk.ingest moves one
// daemon's corpus shard over a chunked, resumable session (versioned
// frames, CRC'd chunks keyed by sequence number; the begin response
// reports the digest of every chunk the daemon already holds);
// hdk.build drives the round-synchronous collaborative build on the
// daemons themselves. Frames are deliberately self-describing and every
// decoder validates all lengths against the remaining input — corrupt
// frames return errCorruptFrame, never panic (see ingestwire_test.go's
// corruption sweeps).

// Streamed-build service names served by every cluster daemon.
const (
	// SvcIngest accepts corpus-shard upload frames (begin, chunk,
	// commit). A begin that carries no shard is the configure.
	SvcIngest = "hdk.ingest"
	// SvcBuild accepts build-orchestration frames (start, round,
	// roundStatus, finish).
	SvcBuild = "hdk.build"
)

// ingestVersion is the ingest protocol version carried by every begin
// frame; a daemon rejects sessions it does not speak.
const ingestVersion = 1

// hdk.ingest frame kinds (first payload byte).
const (
	ingestFrameBegin  = 0x01 // open or resume a session
	ingestFrameChunk  = 0x03 // ship one CRC'd chunk (0x02 is retired)
	ingestFrameCommit = 0x04 // close the session and materialize
)

// hdk.build frame kinds (first payload byte).
const (
	buildFrameStart       = 0x01 // client → coordinator: run the whole build
	buildFrameRound       = 0x02 // coordinator → daemon: start round s on your shard
	buildFrameRoundStatus = 0x03 // coordinator → daemon: poll round s
	buildFrameFinish      = 0x04 // coordinator → daemon: build epilogue
)

// Configure/begin response statuses. The rejection is a transport-level
// SUCCESS frame decoded client-side into a typed error (like the
// overload rejection): a handler error would cross the wire as an
// opaque string, and these two must stay errors.Is-matchable.
const (
	cfgStatusOK           = 0x00
	cfgStatusAlreadyBuilt = 0x01
	cfgStatusMismatch     = 0x02
)

// Chunk payload content kinds (first byte of a chunk payload). Every
// chunk is self-contained and order-independent: meta chunks carry a
// vocabulary range, doc chunks carry whole documents with global ids,
// so a session reassembles identically from any arrival order.
const (
	chunkKindMeta = 0x01 // vocabulary terms + collection frequencies
	chunkKindDocs = 0x02 // whole documents
)

// errCorruptFrame is returned for malformed streamed-build frames.
var errCorruptFrame = errors.New("cluster: corrupt ingest frame")

// chunkDigest is the content digest a resume compares held chunks by
// and the session commit digest is built from (FNV-1a 64 over the
// payload).
func chunkDigest(payload []byte) uint64 {
	h := fnv.New64a()
	h.Write(payload)
	return h.Sum64()
}

// sessionDigest folds the per-chunk digests, in sequence order, into the
// commit digest: a completeness check over the exact bytes the daemon
// holds.
func sessionDigest(digests []uint64) uint64 {
	h := fnv.New64a()
	var cell [8]byte
	for _, d := range digests {
		binary.LittleEndian.PutUint64(cell[:], d)
		h.Write(cell[:])
	}
	return h.Sum64()
}

// ingestBegin opens (or, re-sent with the same session id, resumes) one
// corpus-shard upload session.
type ingestBegin struct {
	Session    uint64 // client-chosen id; a resumed session reuses it
	Config     []byte // engine configuration JSON (the configure payload)
	TotalDocs  uint64 // corpus-wide document count (progress reporting)
	ShardDocs  uint64 // documents in THIS daemon's shard
	VocabSize  uint64
	ChunkBytes uint64 // chunking target; a resume must reuse it or digests diverge
}

func encodeIngestBegin(b ingestBegin) []byte {
	buf := []byte{ingestFrameBegin, ingestVersion}
	buf = binary.AppendUvarint(buf, b.Session)
	buf = wire.AppendBytes(buf, b.Config)
	buf = binary.AppendUvarint(buf, b.TotalDocs)
	buf = binary.AppendUvarint(buf, b.ShardDocs)
	buf = binary.AppendUvarint(buf, b.VocabSize)
	return binary.AppendUvarint(buf, b.ChunkBytes)
}

// decodeIngestBegin parses a begin frame body (frame byte already
// consumed by the dispatcher).
func decodeIngestBegin(body []byte) (ingestBegin, error) {
	r := wire.NewReader(body)
	if r.Byte() != ingestVersion {
		return ingestBegin{}, errCorruptFrame
	}
	var b ingestBegin
	b.Session = r.Uvarint()
	b.Config = append([]byte(nil), r.Bytes(r.Uvarint())...)
	b.TotalDocs = r.Uvarint()
	b.ShardDocs = r.Uvarint()
	b.VocabSize = r.Uvarint()
	b.ChunkBytes = r.Uvarint()
	if !r.Done() {
		return ingestBegin{}, errCorruptFrame
	}
	return b, nil
}

// begin response: configure status byte, then every chunk the daemon
// holds for the session (none on a fresh one or a rejection) as a
// count and [uvarint seq][8-byte LE digest] pairs in ascending sequence
// order — a resuming client ships exactly the chunks whose digest is
// missing or differs.
func encodeIngestBeginResp(status byte, held map[uint64]uint64) []byte {
	buf := binary.AppendUvarint([]byte{status}, uint64(len(held)))
	for _, seq := range slices.Sorted(maps.Keys(held)) {
		buf = binary.AppendUvarint(buf, seq)
		buf = binary.LittleEndian.AppendUint64(buf, held[seq])
	}
	return buf
}

func decodeIngestBeginResp(resp []byte) (status byte, held map[uint64]uint64, err error) {
	r := wire.NewReader(resp)
	status = r.Byte()
	n := r.Count(9) // a one-byte seq and an 8-byte digest
	held = make(map[uint64]uint64, n)
	var last uint64
	for i := range n {
		seq := r.Uvarint()
		if i > 0 && seq <= last {
			r.Fail() // out of order or repeated: not the canonical form
		}
		held[seq], last = r.Uint64LE(), seq
	}
	if !r.Done() {
		return 0, nil, errCorruptFrame
	}
	return status, held, nil
}

// ingestChunk ships one chunk. The CRC covers the payload; an
// acknowledged chunk is durably held (with fsync=always it survives
// SIGKILL), which is what makes "acked chunks are never re-shipped"
// a resume invariant rather than a hope.
type ingestChunk struct {
	Session uint64
	Seq     uint64
	Payload []byte
}

func encodeIngestChunk(c ingestChunk) []byte {
	buf := []byte{ingestFrameChunk}
	buf = binary.AppendUvarint(buf, c.Session)
	buf = binary.AppendUvarint(buf, c.Seq)
	buf = binary.LittleEndian.AppendUint32(buf, crc32.ChecksumIEEE(c.Payload))
	return append(buf, c.Payload...)
}

func decodeIngestChunk(body []byte) (ingestChunk, error) {
	r := wire.NewReader(body)
	var c ingestChunk
	c.Session, c.Seq = r.Uvarint(), r.Uvarint()
	crc := r.Uint32LE()
	c.Payload = r.Rest()
	if r.Err() != nil || crc32.ChecksumIEEE(c.Payload) != crc {
		return ingestChunk{}, errCorruptFrame
	}
	return c, nil
}

// ingestCommit closes a session: the daemon verifies it holds exactly
// Chunks chunks whose digests fold to Digest, then materializes the
// shard (and, on the degenerate configure-only session, just the store).
type ingestCommit struct {
	Session uint64
	Chunks  uint64
	Digest  uint64
}

func encodeIngestCommit(c ingestCommit) []byte {
	buf := []byte{ingestFrameCommit}
	buf = binary.AppendUvarint(buf, c.Session)
	buf = binary.AppendUvarint(buf, c.Chunks)
	return binary.AppendUvarint(buf, c.Digest)
}

func decodeIngestCommit(body []byte) (ingestCommit, error) {
	r := wire.NewReader(body)
	c := ingestCommit{Session: r.Uvarint(), Chunks: r.Uvarint(), Digest: r.Uvarint()}
	if !r.Done() {
		return ingestCommit{}, errCorruptFrame
	}
	return c, nil
}

// --- chunk payload contents ---------------------------------------------

// encodeMetaChunk frames one vocabulary range [firstTerm, firstTerm+len):
// per term, its string and collection frequency.
func encodeMetaChunk(firstTerm int, terms []string, freqs []int) []byte {
	buf := []byte{chunkKindMeta}
	buf = binary.AppendUvarint(buf, uint64(firstTerm))
	buf = binary.AppendUvarint(buf, uint64(len(terms)))
	for i, t := range terms {
		buf = wire.AppendString(buf, t)
		buf = binary.AppendUvarint(buf, uint64(freqs[i]))
	}
	return buf
}

// decodeMetaChunk installs a vocabulary range into vocab/freqs (both
// sized to the session's VocabSize by the caller).
func decodeMetaChunk(body []byte, vocab []string, freqs []int) error {
	r := wire.NewReader(body)
	first, n := r.Uvarint(), r.Count(2) // a term length and a frequency
	if r.Err() != nil || n > len(vocab) || first > uint64(len(vocab)-n) {
		return errCorruptFrame
	}
	for i := range n {
		vocab[first+uint64(i)] = r.String(r.Uvarint())
		freqs[first+uint64(i)] = int(r.Uvarint())
	}
	if !r.Done() {
		return errCorruptFrame
	}
	return nil
}

// encodeDocsChunkDoc appends one document to a docs chunk under
// construction (newDocsChunk starts it). The chunk carries no document
// count, so encoding stays single-pass: documents sit back to back, each
// [uvarint id][uvarint nterms][terms...], and decoding consumes until
// the chunk is exhausted.
func encodeDocsChunkDoc(buf []byte, d corpus.Document) []byte {
	buf = binary.AppendUvarint(buf, uint64(d.ID))
	buf = binary.AppendUvarint(buf, uint64(len(d.Terms)))
	for _, t := range d.Terms {
		buf = binary.AppendUvarint(buf, uint64(t))
	}
	return buf
}

// newDocsChunk starts an empty docs chunk payload.
func newDocsChunk() []byte { return []byte{chunkKindDocs} }

// decodeDocsChunk appends the chunk's documents to docs, validating
// every term id against vocabSize.
func decodeDocsChunk(body []byte, vocabSize uint64, docs []corpus.Document) ([]corpus.Document, error) {
	r := wire.NewReader(body)
	for r.Len() > 0 {
		id := r.Uvarint()
		terms := make([]corpus.TermID, r.Count(1))
		for i := range terms {
			t := r.Uvarint()
			if t >= vocabSize {
				return nil, errCorruptFrame
			}
			terms[i] = corpus.TermID(t)
		}
		docs = append(docs, corpus.Document{ID: corpus.DocID(id), Terms: terms})
	}
	if !r.Done() {
		return nil, errCorruptFrame
	}
	return docs, nil
}

// --- hdk.build frames ----------------------------------------------------

// Build round states, as reported by buildFrameRoundStatus responses and
// the coordinator's cluster.info build_state field.
const (
	buildIdle    = 0x00
	buildRunning = 0x01
	buildDone    = 0x02
	buildFailed  = 0x03
)

func encodeBuildStart() []byte { return []byte{buildFrameStart} }

func encodeBuildRound(size int) []byte {
	return binary.AppendUvarint([]byte{buildFrameRound}, uint64(size))
}

func encodeBuildRoundStatus(size int) []byte {
	return binary.AppendUvarint([]byte{buildFrameRoundStatus}, uint64(size))
}

func encodeBuildFinish() []byte { return []byte{buildFrameFinish} }

func decodeBuildSize(body []byte) (int, error) {
	r := wire.NewReader(body)
	size := r.Uvarint()
	if !r.Done() || size < 1 {
		return 0, errCorruptFrame
	}
	return int(size), nil
}

// round status response: state byte, postings inserted, error string.
func encodeRoundStatusResp(state byte, inserted uint64, errMsg string) []byte {
	return wire.AppendString(binary.AppendUvarint([]byte{state}, inserted), errMsg)
}

func decodeRoundStatusResp(resp []byte) (state byte, inserted uint64, errMsg string, err error) {
	r := wire.NewReader(resp)
	state, inserted, errMsg = r.Byte(), r.Uvarint(), r.String(r.Uvarint())
	if !r.Done() || state > buildFailed {
		return 0, 0, "", errCorruptFrame
	}
	return state, inserted, errMsg, nil
}
