package cluster

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// Round-trip + corruption sweeps for the streamed-build wire codecs.
// The decoders face bytes from the network; the contract is exact
// round-trips on well-formed frames and errCorruptFrame — never a
// panic, never a giant allocation — on everything else.

func TestIngestWireRoundTrips(t *testing.T) {
	begin := ingestBegin{
		Session:    7,
		Config:     []byte(`{"df_max":8}`),
		TotalDocs:  100000,
		ShardDocs:  20000,
		VocabSize:  50000,
		ChunkBytes: 256 << 10,
	}
	gotBegin, err := decodeIngestBegin(encodeIngestBegin(begin)[1:])
	if err != nil || !reflect.DeepEqual(begin, gotBegin) {
		t.Fatalf("begin round-trip: %+v, %v", gotBegin, err)
	}

	held := map[uint64]uint64{0: 1, 3: 1 << 63, 4: 0, 1 << 40: 12345}
	status, gotHeld, err := decodeIngestBeginResp(encodeIngestBeginResp(cfgStatusOK, held))
	if err != nil || status != cfgStatusOK || !reflect.DeepEqual(held, gotHeld) {
		t.Fatalf("begin resp round-trip: %d %v %v", status, gotHeld, err)
	}
	status, gotHeld, err = decodeIngestBeginResp(encodeIngestBeginResp(cfgStatusAlreadyBuilt, nil))
	if err != nil || status != cfgStatusAlreadyBuilt || len(gotHeld) != 0 {
		t.Fatalf("empty begin resp round-trip: %d %v %v", status, gotHeld, err)
	}
	// The held chunks travel in ascending sequence order; any other
	// order, or a repeated sequence number, is not the canonical form.
	pair := func(buf []byte, seq uint64) []byte {
		return binary.LittleEndian.AppendUint64(binary.AppendUvarint(buf, seq), 9)
	}
	for name, resp := range map[string][]byte{
		"descending": pair(pair([]byte{cfgStatusOK, 2}, 5), 4),
		"repeated":   pair(pair([]byte{cfgStatusOK, 2}, 5), 5),
	} {
		if _, _, err := decodeIngestBeginResp(resp); err == nil {
			t.Fatalf("begin resp with %s sequence numbers accepted", name)
		}
	}

	chunk := ingestChunk{Session: 7, Seq: 3, Payload: []byte{chunkKindDocs, 1, 2, 3}}
	gotChunk, err := decodeIngestChunk(encodeIngestChunk(chunk)[1:])
	if err != nil || gotChunk.Session != 7 || gotChunk.Seq != 3 || !bytes.Equal(chunk.Payload, gotChunk.Payload) {
		t.Fatalf("chunk round-trip: %+v, %v", gotChunk, err)
	}

	commit := ingestCommit{Session: 7, Chunks: 812, Digest: 0xdeadbeefcafef00d}
	gotCommit, err := decodeIngestCommit(encodeIngestCommit(commit)[1:])
	if err != nil || commit != gotCommit {
		t.Fatalf("commit round-trip: %+v, %v", gotCommit, err)
	}

	state, inserted, msg, err := decodeRoundStatusResp(encodeRoundStatusResp(buildFailed, 99, "boom"))
	if err != nil || state != buildFailed || inserted != 99 || msg != "boom" {
		t.Fatalf("round status round-trip: %d %d %q %v", state, inserted, msg, err)
	}
	size, err := decodeBuildSize(encodeBuildRound(5)[1:])
	if err != nil || size != 5 {
		t.Fatalf("build size round-trip: %d %v", size, err)
	}
}

func TestChunkPayloadRoundTrips(t *testing.T) {
	terms := []string{"alpha", "beta", "", "delta"}
	freqs := []int{10, 0, 3, 7}
	meta := encodeMetaChunk(2, terms, freqs)
	vocab := make([]string, 10)
	got := make([]int, 10)
	if err := decodeMetaChunk(meta[1:], vocab, got); err != nil {
		t.Fatal(err)
	}
	for i := range terms {
		if vocab[2+i] != terms[i] || got[2+i] != freqs[i] {
			t.Fatalf("meta slot %d: %q/%d", i, vocab[2+i], got[2+i])
		}
	}

	docs := []corpus.Document{
		{ID: 4, Terms: []corpus.TermID{0, 9, 3}},
		{ID: 900, Terms: nil},
		{ID: 5, Terms: []corpus.TermID{1}},
	}
	buf := newDocsChunk()
	for _, d := range docs {
		buf = encodeDocsChunkDoc(buf, d)
	}
	gotDocs, err := decodeDocsChunk(buf[1:], 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotDocs) != len(docs) {
		t.Fatalf("decoded %d docs, want %d", len(gotDocs), len(docs))
	}
	for i, d := range docs {
		if gotDocs[i].ID != d.ID || len(gotDocs[i].Terms) != len(d.Terms) {
			t.Fatalf("doc %d diverges: %+v", i, gotDocs[i])
		}
		for j, tid := range d.Terms {
			if gotDocs[i].Terms[j] != tid {
				t.Fatalf("doc %d term %d diverges", i, j)
			}
		}
	}
	// Term ids out of the session's vocabulary are rejected.
	if _, err := decodeDocsChunk(buf[1:], 9, nil); err == nil {
		t.Fatal("term id 9 accepted against vocab size 9")
	}
}

// corruptionSweep feeds the decoder every truncation and every
// single-byte flip of a valid frame; none may panic, and the decoder
// must answer (any error is fine, as is a clean parse when the flip
// lands somewhere semantically inert).
func corruptionSweep(t *testing.T, name string, frame []byte, decode func([]byte)) {
	t.Helper()
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("%s decoder panicked: %v", name, r)
		}
	}()
	for cut := 0; cut < len(frame); cut++ {
		decode(frame[:cut])
	}
	for pos := 0; pos < len(frame); pos++ {
		for _, flip := range []byte{0x01, 0x80, 0xff} {
			mut := append([]byte(nil), frame...)
			mut[pos] ^= flip
			decode(mut)
		}
	}
	// Hostile counts: a uvarint claiming 2^60 elements must be refused
	// before any allocation, not after.
	decode(append(append([]byte(nil), frame...), 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x10))
}

func TestIngestWireCorruptionNeverPanics(t *testing.T) {
	begin := encodeIngestBegin(ingestBegin{Session: 1, Config: []byte(`{}`), TotalDocs: 5, ShardDocs: 5, VocabSize: 3, ChunkBytes: 64})
	corruptionSweep(t, "begin", begin[1:], func(b []byte) { _, _ = decodeIngestBegin(b) })
	beginResp := encodeIngestBeginResp(cfgStatusOK, map[uint64]uint64{0: 5, 1: 6, 7: 7})
	corruptionSweep(t, "beginResp", beginResp, func(b []byte) { _, _, _ = decodeIngestBeginResp(b) })
	chunk := encodeIngestChunk(ingestChunk{Session: 1, Seq: 2, Payload: []byte{chunkKindMeta, 0, 1, 2}})
	corruptionSweep(t, "chunk", chunk[1:], func(b []byte) { _, _ = decodeIngestChunk(b) })
	commit := encodeIngestCommit(ingestCommit{Session: 1, Chunks: 3, Digest: 99})
	corruptionSweep(t, "commit", commit[1:], func(b []byte) { _, _ = decodeIngestCommit(b) })

	meta := encodeMetaChunk(0, []string{"a", "bb"}, []int{1, 2})
	corruptionSweep(t, "metaChunk", meta[1:], func(b []byte) {
		_ = decodeMetaChunk(b, make([]string, 4), make([]int, 4))
	})
	docsBuf := encodeDocsChunkDoc(newDocsChunk(), corpus.Document{ID: 1, Terms: []corpus.TermID{0, 1}})
	corruptionSweep(t, "docsChunk", docsBuf[1:], func(b []byte) { _, _ = decodeDocsChunk(b, 4, nil) })
	corruptionSweep(t, "roundStatus", encodeRoundStatusResp(buildDone, 5, "x"), func(b []byte) {
		_, _, _, _ = decodeRoundStatusResp(b)
	})
	corruptionSweep(t, "buildSize", encodeBuildRound(2)[1:], func(b []byte) { _, _ = decodeBuildSize(b) })

	// A flipped CRC must be refused even when the frame still parses.
	mut := append([]byte(nil), chunk[1:]...)
	mut[len(mut)-1] ^= 0x01 // payload byte no longer matches the CRC
	if _, err := decodeIngestChunk(mut); err == nil {
		t.Fatal("chunk with corrupted payload accepted")
	}

	// The server dispatcher itself survives garbage service payloads.
	for _, raw := range [][]byte{nil, {}, {0x00}, {0xff}, {ingestFrameBegin}, {ingestFrameChunk, 0xff}} {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("handleIngest(%x) panicked: %v", raw, r)
				}
			}()
			srv := &Server{addr: "x", metrics: newServerMetrics()}
			_, _ = srv.handleIngest(raw)
			_, _ = srv.handleBuild(raw)
		}()
	}
}
