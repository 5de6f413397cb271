package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"

	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/wire"
)

func TestFetchBatchReqRoundTrip(t *testing.T) {
	keys := []string{"alpha", "beta\x1fgamma", ""}
	got, err := decodeFetchBatchReq(encodeFetchBatchReq(keys))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(keys) {
		t.Fatalf("got %d keys, want %d", len(got), len(keys))
	}
	for i := range keys {
		if got[i] != keys[i] {
			t.Fatalf("key %d: %q != %q", i, got[i], keys[i])
		}
	}
}

func TestFetchBatchRespRoundTrip(t *testing.T) {
	in := []fetchResult{
		{key: "hdk", status: StatusHDK, df: 7, list: postings.List{{Doc: 1, Score: 2.5}, {Doc: 4, Score: 0.5}}},
		{key: "ndk\x1fpair", status: StatusNDK, df: 412, list: postings.List{{Doc: 2, Score: 1.0}}},
		{key: "missing", status: StatusAbsent, df: 0, list: nil},
	}
	got, err := decodeFetchBatchResp(encodeFetchBatchResp(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(in) {
		t.Fatalf("got %d results, want %d", len(got), len(in))
	}
	for i, want := range in {
		g := got[i]
		if g.key != want.key || g.status != want.status || g.df != want.df || len(g.list) != len(want.list) {
			t.Fatalf("result %d: %+v != %+v", i, g, want)
		}
		for j := range want.list {
			if g.list[j] != want.list[j] {
				t.Fatalf("result %d posting %d: %+v != %+v", i, j, g.list[j], want.list[j])
			}
		}
	}
}

func TestFetchBatchRespCorrupt(t *testing.T) {
	// Status field outside the valid range.
	bad := postings.EncodeKeyedBatch(nil, []postings.KeyedMessage{{Key: "k", Aux: 3}})
	if _, err := decodeFetchBatchResp(bad); !errors.Is(err, errCorruptRPC) {
		t.Errorf("bad status: got %v, want errCorruptRPC", err)
	}
	// Truncations of a valid response must error, never panic.
	valid := encodeFetchBatchResp([]fetchResult{
		{key: "alpha", status: StatusHDK, df: 3, list: postings.List{{Doc: 1, Score: 1}}},
		{key: "beta", status: StatusNDK, df: 9, list: postings.List{{Doc: 2, Score: 2}}},
	})
	for cut := 0; cut < len(valid); cut++ {
		if _, err := decodeFetchBatchResp(valid[:cut]); err == nil {
			t.Fatalf("truncation to %d bytes accepted", cut)
		}
	}
}

// TestFetchBatchWireMatchesEncodedBatch pins the hot-path contract:
// the single-pass fetchBatchWire must produce bytes IDENTICAL to
// materializing the batch and encoding it — the daemons' fetch
// responses did not change when the intermediate allocation was cut.
func TestFetchBatchWireMatchesEncodedBatch(t *testing.T) {
	cfg := DefaultConfig(rank.CollectionStats{NumDocs: 100, AvgDocLen: 50})
	cfg.DFMax = 2
	store := newHDKStore(&cfg)
	store.insert("solo", 1, postings.List{{Doc: 1, Score: 1}}, "peer-0")
	store.insert("pop", 1, postings.List{{Doc: 1, Score: 1}, {Doc: 2, Score: 2}, {Doc: 3, Score: 3}}, "peer-0")
	store.classifySweep(1)
	store.insert("unclassified", 1, postings.List{{Doc: 9, Score: 1}}, "peer-0")

	for _, keys := range [][]string{
		{"solo", "pop", "unclassified", "absent", ""},
		{"absent-only"},
		{},
		{"pop", "pop"},
	} {
		want := encodeFetchBatchResp(store.fetchBatch(keys))
		got := store.fetchBatchWire(keys)
		if !bytes.Equal(got, want) {
			t.Fatalf("keys %q: wire fast path diverges\nwant %x\ngot  %x", keys, want, got)
		}
	}
}

func TestStoreFetchBatchMatchesSingleFetches(t *testing.T) {
	cfg := DefaultConfig(rank.CollectionStats{NumDocs: 100, AvgDocLen: 50})
	cfg.DFMax = 2
	store := newHDKStore(&cfg)
	store.insert("solo", 1, postings.List{{Doc: 1, Score: 1}}, "peer-0")
	store.insert("pop", 1, postings.List{{Doc: 1, Score: 1}, {Doc: 2, Score: 2}, {Doc: 3, Score: 3}}, "peer-0")
	store.classifySweep(1)
	store.insert("unclassified", 1, postings.List{{Doc: 9, Score: 1}}, "peer-0")

	keys := []string{"solo", "pop", "unclassified", "absent"}
	batch := store.fetchBatch(keys)
	if len(batch) != len(keys) {
		t.Fatalf("batch answered %d keys, want %d", len(batch), len(keys))
	}
	for i, key := range keys {
		status, df, list := store.fetch(key)
		r := batch[i]
		if r.key != key || r.status != status || r.df != df || len(r.list) != len(list) {
			t.Fatalf("key %q: batch %+v != single (%v, %d, %d postings)", key, r, status, df, len(list))
		}
	}
	if batch[0].status != StatusHDK || batch[1].status != StatusNDK ||
		batch[2].status != StatusAbsent || batch[3].status != StatusAbsent {
		t.Fatalf("unexpected statuses: %+v", batch)
	}
}

// insert is the single-key form of insertBatch these tests speak. Like
// insertBatch, it hands the list over to the store.
func (s *hdkStore) insert(key string, size int, list postings.List, contributor string) {
	s.insertBatch(contributor, []postings.KeyedMessage{{Key: key, Aux: uint64(size), List: list}})
}

// TestImportedChecksumMatchesReexport: importEntry memoizes the blob's
// checksum as the entry's fingerprint, which is sound only if the entry
// re-exports to exactly that blob. A blob that decodes to an entry but
// re-exports to other bytes must be rejected, or its copy's fingerprint
// never equals a canonical replica's.
func TestImportedChecksumMatchesReexport(t *testing.T) {
	blob := func(flags byte, df []byte, contributors ...string) []byte {
		b := append([]byte{1}, df...) // key size 1
		b = append(b, flags)
		b = binary.AppendUvarint(b, uint64(len(contributors)))
		for _, c := range contributors {
			b = wire.AppendString(b, c)
		}
		return postings.Encode(b, postings.List{{Doc: 1, Score: 1}, {Doc: 2, Score: 1}})
	}
	cfg := storeCfg()
	valid := blob(0, []byte{2}, "peer-a", "peer-b")
	store := newHDKStore(&cfg)
	if ok, err := store.importEntry("k", valid); !ok || err != nil {
		t.Fatalf("canonical blob: ok=%v err=%v", ok, err)
	}
	if got, _ := store.exportEntry("k"); !bytes.Equal(got, valid) {
		t.Fatalf("canonical blob re-exports to %x, want %x", got, valid)
	}
	for name, b := range map[string][]byte{
		"unknown flag bit":        blob(1<<3, []byte{2}, "peer-a", "peer-b"),
		"contributors descending": blob(0, []byte{2}, "peer-b", "peer-a"),
		"duplicate contributor":   blob(0, []byte{2}, "peer-a", "peer-a"),
		"non-minimal df":          blob(0, []byte{0x82, 0x00}, "peer-a", "peer-b"),
	} {
		store := newHDKStore(&cfg)
		if _, err := store.importEntry("k", b); err != nil {
			continue
		}
		got, _ := store.exportEntry("k")
		if fp, _ := store.entryFingerprint("k"); fp.Sum != blobSum(got) {
			t.Errorf("%s: memoized checksum %d, re-export's %d", name, fp.Sum, blobSum(got))
		}
	}
}

// entryFingerprint reports whether the store holds the key and, if so,
// its copy's replica fingerprint (the census entry for that key).
func (s *hdkStore) entryFingerprint(key string) (replica.Fingerprint, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.entries[key]
	if !ok {
		return replica.Fingerprint{}, false
	}
	return fingerprintEntry(e), true
}

// exportEntry is one resident entry's repair snapshot.
func (s *hdkStore) exportEntry(key string) ([]byte, bool) {
	items, err := s.exportEntries([]string{key})
	if err != nil {
		return nil, false
	}
	return items[0].Blob, true
}
