package core

import (
	"bytes"
	"testing"
	"time"

	"repro/internal/fuzzcorpus"
	"repro/internal/rank"
)

// Fuzz targets for the hdk.search wire codec: the request a thin client
// ships and the framed response (plain, cached, traced, overloaded) a
// coordinator returns. The decoders face bytes from the network, so the
// bar is: never panic, never allocate proportionally to a declared
// count the input cannot back, and decode successfully only into values
// whose re-encoding is stable (encode∘decode is idempotent on accepted
// inputs — float scores are compared through their encodings, which are
// exact bit copies, so NaN cannot produce a false mismatch). A request,
// whose raw bytes key the coordinator's result cache, must re-encode to
// exactly its input.

func searchRequestSeeds() [][]byte {
	return [][]byte{
		EncodeSearchRequest(SearchRequest{Terms: []string{"alpha"}, K: 1}),
		EncodeSearchRequest(SearchRequest{Terms: []string{"alpha", "beta", "gamma"}, K: 10, NoCache: true}),
		EncodeSearchRequest(SearchRequest{Terms: []string{"a", "b"}, K: 5, Trace: true}),
		{},
		{0xff, 0xff, 0xff, 0xff, 0xff},
	}
}

func searchResponseSeeds() [][]byte {
	res := &SearchResult{
		Results:      []rank.Result{{Doc: 7, Score: 1.5}, {Doc: 9, Score: 0.25}},
		FetchedPosts: 42,
		ProbedKeys:   6,
		FoundKeys:    3,
		RPCs:         2,
		Rounds:       2,
		Failovers:    1,
	}
	body := EncodeSearchResult(res)
	return [][]byte{
		EncodeSearchResponse(body, false),
		EncodeSearchResponse(body, true),
		EncodeSearchResponseTraced(body, []byte("trace-bytes")),
		EncodeSearchOverloaded(250 * time.Millisecond),
		EncodeSearchResponse(EncodeSearchResult(&SearchResult{}), false),
		{},
		{0x03},
	}
}

func FuzzDecodeSearchRequest(f *testing.F) {
	for _, seed := range searchRequestSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		req, err := DecodeSearchRequest(data)
		if err != nil {
			return
		}
		if enc := EncodeSearchRequest(req); !bytes.Equal(enc, data) {
			t.Fatalf("accepted request is not canonical:\n input %x\nre-enc %x", data, enc)
		}
	})
}

func FuzzDecodeSearchResponse(f *testing.F) {
	for _, seed := range searchResponseSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// The traced form is a superset decoder (flags 0–3); an
		// OverloadError return is a successful decode of frame flag 2.
		res, _, _, err := DecodeSearchResponseTrace(data)
		if err != nil {
			return
		}
		enc := EncodeSearchResult(res)
		res2, err := DecodeSearchResult(enc)
		if err != nil {
			t.Fatalf("re-decode of accepted result failed: %v", err)
		}
		if enc2 := EncodeSearchResult(res2); !bytes.Equal(enc, enc2) {
			t.Fatalf("result encoding not stable:\n first %x\nsecond %x", enc, enc2)
		}
		if len(res.Results) > maxSearchK {
			t.Fatalf("decoded %d results, beyond maxSearchK=%d", len(res.Results), maxSearchK)
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus; see
// package fuzzcorpus.
func TestWriteFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Enabled() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.EnvVar)
	}
	for name, seeds := range map[string][][]byte{
		"FuzzDecodeSearchRequest":  searchRequestSeeds(),
		"FuzzDecodeSearchResponse": searchResponseSeeds(),
		"FuzzDecodeRepairBatch":    repairBatchSeeds(),
		"FuzzDecodeCensus":         censusSeeds(),
	} {
		if err := fuzzcorpus.Write(name, seeds); err != nil {
			t.Fatal(err)
		}
	}
}
