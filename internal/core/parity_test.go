package core

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/corpus"
	"repro/internal/postings"
	"repro/internal/rank"
)

// The goldens in this file were recorded at the commit BEFORE the key
// algebra, candidate accumulation and store-entry representations were
// replaced (map-typed contributors, sort.Slice-based NewKey, per-key
// candidate lists). They pin what that rewrite — and any later one — must
// not change: the exact index a build produces and the exact bytes an
// entry exports as.

// indexDigest folds every in-process store's full content — member
// address, then each resident key with its canonical export (size, df,
// classification, sorted contributors, posting list) in sorted key order —
// into one hash, in ring order.
func indexDigest(t *testing.T, eng *Engine) string {
	t.Helper()
	h := sha256.New()
	var lenBuf [binary.MaxVarintLen64]byte
	write := func(b []byte) {
		h.Write(lenBuf[:binary.PutUvarint(lenBuf[:], uint64(len(b)))])
		h.Write(b)
	}
	for _, m := range eng.net.Members() {
		store := eng.stores[m.ID()].store
		write([]byte(m.Addr()))
		for _, key := range store.keyList() {
			blob, ok := store.exportEntry(key)
			if !ok {
				t.Fatalf("key %q vanished from %s", key, m.Addr())
			}
			write([]byte(key))
			write(blob)
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestBuildParityGolden builds a 3-peer, R = 2 in-process index at smax 3
// under every combination of the two ablation switches, plus one
// incremental update, and compares the full index digest with the golden
// recorded on the parent commit: a generation shortcut that drops,
// duplicates, rescoring-reorders or misclassifies a single candidate
// changes the digest.
func TestBuildParityGolden(t *testing.T) {
	col := testCollection(t, 240)
	cases := []struct {
		name            string
		noRedundancy    bool
		noNDKStorage    bool
		incremental     bool
		golden          string
		goldenInserted  uint64
		goldenNotifyMsg uint64
	}{
		{name: "plain", golden: "cc4dd4afb202218623bc05255d91c62e931066e31234a7a0862c0977defe49e9", goldenInserted: 142370, goldenNotifyMsg: 9600},
		{name: "no-redundancy-filtering", noRedundancy: true, golden: "783595712beecb6c65c44ea2fc76dde5340fe734c3ad486ae1a60100c556dadb", goldenInserted: 225474, goldenNotifyMsg: 9600},
		{name: "no-ndk-storage", noNDKStorage: true, golden: "cabe02da01933edb347637e522e61094c1f7d31d6471bc9fa79a513f9d0f177d", goldenInserted: 142370, goldenNotifyMsg: 9600},
		{name: "both-ablations", noRedundancy: true, noNDKStorage: true, golden: "b353b40bffa48bcfd52a761f7e95b1c1977a28d893a233537e7dc1634a9fc7c7", goldenInserted: 225474, goldenNotifyMsg: 9600},
		{name: "incremental", incremental: true, golden: "cc4dd4afb202218623bc05255d91c62e931066e31234a7a0862c0977defe49e9", goldenInserted: 142370, goldenNotifyMsg: 9348},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := testConfig(col, 6)
			cfg.SMax = 3
			cfg.ReplicationFactor = 2
			cfg.DisableRedundancyFiltering = tc.noRedundancy
			cfg.DisableNDKStorage = tc.noNDKStorage
			var eng *Engine
			if tc.incremental {
				base := &corpus.Collection{Vocab: col.Vocab, Docs: col.Docs[:180]}
				eng = buildEngine(t, base, 3, cfg)
				if err := eng.BuildIndex(); err != nil {
					t.Fatal(err)
				}
				extra := &corpus.Collection{Vocab: col.Vocab, Docs: col.Docs[180:]}
				for i, part := range extra.SplitRoundRobin(3) {
					if err := eng.peers[i].AddDocuments(part); err != nil {
						t.Fatal(err)
					}
				}
				if err := eng.BuildIndex(); err != nil {
					t.Fatal(err)
				}
			} else {
				eng = buildEngine(t, col, 3, cfg)
				if err := eng.BuildIndex(); err != nil {
					t.Fatal(err)
				}
			}
			inserted, notified := counted(eng, metricBuildInsertedPostings), counted(eng, metricBuildNotifyKeys)
			got := indexDigest(t, eng)
			t.Logf("digest %s inserted %d notify %d keys %d", got, inserted, notified, eng.Stats().KeysTotal)
			if got != tc.golden {
				t.Errorf("index digest %s, golden %s", got, tc.golden)
			}
			if inserted != tc.goldenInserted || notified != tc.goldenNotifyMsg {
				t.Errorf("traffic (inserted %d, notify %d), golden (%d, %d)",
					inserted, notified, tc.goldenInserted, tc.goldenNotifyMsg)
			}
		})
	}
}

// permutations invokes fn with every ordering of 0..n-1.
func permutations(n int, fn func(order []int)) {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	var rec func(k int)
	rec = func(k int) {
		if k == n {
			fn(order)
			return
		}
		for i := k; i < n; i++ {
			order[k], order[i] = order[i], order[k]
			rec(k + 1)
			order[k], order[i] = order[i], order[k]
		}
	}
	rec(0)
}

// TestEntryExportStable applies the same three contributions in every
// order: the entry's canonical export and checksum must not depend on the
// order contributors arrived in, and must equal the bytes the parent
// commit exported — durable snapshots, repair blobs and replica
// fingerprints written before the representation change stay valid.
func TestEntryExportStable(t *testing.T) {
	const (
		goldenOpen   = "020900030f3132372e302e302e313a31393430300f3132372e302e302e313a31393430310f3132372e302e302e313a313934303209010000c03f000000003f020000804001000040400300001040000000003e580000803f000000803f020000803f"
		goldenNDK    = "020906030f3132372e302e302e313a31393430300f3132372e302e302e313a31393430310f3132372e302e302e313a313934303204010000c03f030000804001000040400300001040"
		goldenSumNDK = uint64(637585535914790155)
	)
	type contribution struct {
		addr string
		list postings.List
	}
	contribs := []contribution{
		{"127.0.0.1:19402", postings.List{{Doc: 2, Score: 0.5}, {Doc: 11, Score: 2.25}}},
		{"127.0.0.1:19400", postings.List{{Doc: 1, Score: 1.5}, {Doc: 7, Score: 3}, {Doc: 12, Score: 0.125}}},
		{"127.0.0.1:19401", postings.List{{Doc: 5, Score: 4}}},
	}
	cfg := DefaultConfig(rank.CollectionStats{NumDocs: 100, AvgDocLen: 50})
	cfg.DFMax = 4
	const key = "alpha\x1fbeta"
	permutations(len(contribs), func(order []int) {
		store := newHDKStore(&cfg)
		for _, i := range order {
			// The store may keep the list it is handed; every permutation
			// gets its own copy.
			store.insert(key, 2, append(postings.List(nil), contribs[i].list...), contribs[i].addr)
			// A repeated contribution from the same peer adds postings but
			// not a second contributor.
			store.insert(key, 2, postings.List{{Doc: 100 + contribs[i].list[0].Doc, Score: 1}}, contribs[i].addr)
		}
		open, _ := store.exportEntry(key)
		if got := hex.EncodeToString(open); got != goldenOpen {
			t.Fatalf("order %v: unclassified export\n got %s\nwant %s", order, got, goldenOpen)
		}
		notify := store.classifySweep(2)
		if got := notify[key]; len(got) != 3 || got[0] != "127.0.0.1:19400" || got[1] != "127.0.0.1:19401" || got[2] != "127.0.0.1:19402" {
			t.Fatalf("order %v: notify list %q, want the three contributors sorted", order, got)
		}
		ndk, _ := store.exportEntry(key)
		if got := hex.EncodeToString(ndk); got != goldenNDK {
			t.Fatalf("order %v: classified export\n got %s\nwant %s", order, got, goldenNDK)
		}
		fp, ok := store.entryFingerprint(key)
		if !ok || fp.Sum != goldenSumNDK || fp.Version != 9 {
			t.Fatalf("order %v: fingerprint %+v, want df 9 sum %d", order, fp, goldenSumNDK)
		}
		// Round trip through the blob decoder: same bytes out.
		re := newHDKStore(&cfg)
		if err := re.restoreEntry(key, ndk); err != nil {
			t.Fatal(err)
		}
		if again, _ := re.exportEntry(key); hex.EncodeToString(again) != goldenNDK {
			t.Fatalf("order %v: export changed across a decode round trip", order)
		}
	})
}
