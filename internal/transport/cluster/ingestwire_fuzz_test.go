package cluster

import (
	"bytes"
	"testing"

	"repro/internal/corpus"
	"repro/internal/fuzzcorpus"
)

// Fuzz targets for the streamed-ingest wire protocol, grouped by the
// three frames a hostile client controls end to end: begin (session
// setup, and the begin response a client decodes), chunk (the bulk
// payload path, CRC-framed, with the meta and docs chunk payload codecs
// behind it) and commit (plus the small build codecs: round size and
// round status). Every decoder here
// was hardened against allocation bombs in the PR4 class — the fuzz
// bodies decode arbitrary bytes, so an unbounded prealloc or index slip
// surfaces as an OOM or panic immediately.

func ingestBeginSeeds() [][]byte {
	begin := encodeIngestBegin(ingestBegin{
		Session:    7,
		Config:     []byte(`{"smax":3}`),
		TotalDocs:  100,
		ShardDocs:  25,
		VocabSize:  1000,
		ChunkBytes: 1 << 16,
	})
	return [][]byte{
		begin[1:], // dispatcher strips the frame byte before decode
		encodeIngestBeginResp(cfgStatusOK, map[uint64]uint64{0: 9, 1: 8, 5: 7}),
		{},
		{0xff, 0xff, 0xff, 0xff},
	}
}

func ingestChunkSeeds() [][]byte {
	meta := encodeMetaChunk(2, []string{"alpha", "beta"}, []int{3, 1})
	docs := encodeDocsChunkDoc(nil, corpus.Document{ID: 5, Terms: []corpus.TermID{1, 3}})
	chunk := encodeIngestChunk(ingestChunk{Session: 7, Seq: 1, Payload: meta})
	return [][]byte{
		chunk[1:],
		meta[1:], // chunk payload codecs (kind byte stripped by the applier)
		docs,
		{},
		{0x00, 0x00, 0x00, 0x00, 0x00},
	}
}

func ingestCommitSeeds() [][]byte {
	commit := encodeIngestCommit(ingestCommit{Session: 7, Chunks: 3, Digest: 0xdeadbeef})
	legacyConfigure := encodeIngestCommit(ingestCommit{})
	return [][]byte{
		commit[1:],
		encodeBuildRound(3)[1:],
		encodeRoundStatusResp(buildFailed, 12, "boom"),
		legacyConfigure[1:], // the zero-chunk session-0 commit older daemons logged
		{},
	}
}

func FuzzDecodeIngestBegin(f *testing.F) {
	for _, seed := range ingestBeginSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := decodeIngestBegin(data); err == nil {
			enc := encodeIngestBegin(b)
			b2, err := decodeIngestBegin(enc[1:])
			if err != nil {
				t.Fatalf("re-decode of accepted begin failed: %v", err)
			}
			if !bytes.Equal(encodeIngestBegin(b2), enc) {
				t.Fatal("begin encoding not stable")
			}
		}
		if status, held, err := decodeIngestBeginResp(data); err == nil {
			if !bytes.Equal(encodeIngestBeginResp(status, held), data) {
				t.Fatal("accepted begin response is not canonical")
			}
		}
	})
}

func FuzzDecodeIngestChunk(f *testing.F) {
	for _, seed := range ingestChunkSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := decodeIngestChunk(data); err == nil {
			enc := encodeIngestChunk(c)
			c2, err := decodeIngestChunk(enc[1:])
			if err != nil {
				t.Fatalf("re-decode of accepted chunk failed: %v", err)
			}
			if c2.Session != c.Session || c2.Seq != c.Seq || !bytes.Equal(c2.Payload, c.Payload) {
				t.Fatal("chunk roundtrip drifted")
			}
		}
		// Chunk payload codecs: bounded installs into caller-sized state.
		vocab := make([]string, 16)
		freqs := make([]int, 16)
		decodeMetaChunk(data, vocab, freqs)
		decodeDocsChunk(data, 16, nil)
	})
}

func FuzzDecodeIngestCommit(f *testing.F) {
	for _, seed := range ingestCommitSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if c, err := decodeIngestCommit(data); err == nil {
			enc := encodeIngestCommit(c)
			if c2, err := decodeIngestCommit(enc[1:]); err != nil || c2 != c {
				t.Fatalf("commit roundtrip drifted: %+v vs %+v (%v)", c, c2, err)
			}
		}
		decodeBuildSize(data)
		decodeRoundStatusResp(data)
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus; see
// package fuzzcorpus.
func TestWriteFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Enabled() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.EnvVar)
	}
	for name, seeds := range map[string][][]byte{
		"FuzzDecodeIngestBegin":  ingestBeginSeeds(),
		"FuzzDecodeIngestChunk":  ingestChunkSeeds(),
		"FuzzDecodeIngestCommit": ingestCommitSeeds(),
	} {
		if err := fuzzcorpus.Write(name, seeds); err != nil {
			t.Fatal(err)
		}
	}
}
