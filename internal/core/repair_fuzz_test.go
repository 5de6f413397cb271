package core

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/postings"
	"repro/internal/replica"
)

// FuzzDecodeRepairBatch feeds replica.repair payloads — a logged
// mutation any member can send — through storeRepair into a fresh store.
// Besides never panicking, an accepted batch must leave every key
// re-exporting to exactly one of the blobs sent for it, with the
// memoized checksum equal to that re-export's: the fingerprint a repair
// sweep compares across replicas.

func repairBatchSeeds() [][]byte {
	cfg := storeCfg()
	donor := newHDKStore(&cfg)
	donor.insert("hdk", 1, postings.List{{Doc: 1, Score: 1}}, "peer-0")
	donor.insert("hdk", 1, postings.List{{Doc: 5, Score: 0.5}}, "peer-1")
	donor.insert("ndk", 1, postings.List{{Doc: 1, Score: 1}, {Doc: 2, Score: 2}, {Doc: 3, Score: 3}, {Doc: 4, Score: 4}}, "peer-0")
	donor.classifySweep(1)
	donor.insert("hdk\x1fndk", 2, postings.List{{Doc: 9, Score: 2}}, "peer-1")
	var items []replica.Item
	for _, k := range donor.keyList() {
		blob, _ := donor.exportEntry(k)
		items = append(items, replica.Item{Key: k, Blob: blob})
	}
	flagged := slices.Clone(items[0].Blob)
	flagged[2] |= 1 << 3 // an unknown flag bit (size and df are one byte each)
	return [][]byte{
		replica.EncodeBatch(nil, items),
		replica.EncodeBatch(nil, items[:1]),
		replica.EncodeBatch(nil, []replica.Item{items[1], items[1]}),
		replica.EncodeBatch(nil, []replica.Item{{Key: items[0].Key, Blob: flagged}}),
		replica.EncodeBatch(nil, nil),
		{},
	}
}

func FuzzDecodeRepairBatch(f *testing.F) {
	for _, seed := range repairBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		cfg := storeCfg()
		store := newHDKStore(&cfg)
		if _, err := storeRepair(store, data); err != nil {
			return
		}
		items, err := replica.DecodeBatch(data)
		if err != nil {
			t.Fatalf("storeRepair accepted a batch DecodeBatch rejects: %v", err)
		}
		sent := map[string][][]byte{}
		for _, it := range items {
			sent[it.Key] = append(sent[it.Key], it.Blob)
		}
		for key, blobs := range sent {
			got, ok := store.exportEntry(key)
			if !ok {
				t.Fatalf("%q imported without error but is not resident", key)
			}
			if !slices.ContainsFunc(blobs, func(b []byte) bool { return bytes.Equal(b, got) }) {
				t.Fatalf("%q re-exports to %x, none of the blobs sent for it", key, got)
			}
			if fp, _ := store.entryFingerprint(key); fp.Sum != blobSum(got) {
				t.Fatalf("%q: memoized checksum %d, re-export's %d", key, fp.Sum, blobSum(got))
			}
		}
	})
}
