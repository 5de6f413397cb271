package core

import (
	"reflect"
	"testing"

	"repro/internal/postings"
	"repro/internal/replica"
)

func TestNotifyMapCodecRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		m    map[string][]string
	}{
		{"empty", map[string][]string{}},
		{"single", map[string][]string{"alpha": {"n0"}}},
		{"multi", map[string][]string{
			"alpha":      {"n0", "n1"},
			"beta:gamma": {"n2"},
			"delta":      {},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got, err := DecodeNotifyMap(encodeNotifyMap(tc.m))
			if err != nil {
				t.Fatal(err)
			}
			if len(got) != len(tc.m) {
				t.Fatalf("decoded %d keys, want %d", len(got), len(tc.m))
			}
			for k, want := range tc.m {
				if g := got[k]; len(g) != len(want) || (len(want) > 0 && !reflect.DeepEqual(g, want)) {
					t.Fatalf("key %q: %v, want %v", k, g, want)
				}
			}
		})
	}
}

func TestNotifyMapCodecCorrupt(t *testing.T) {
	valid := encodeNotifyMap(map[string][]string{"alpha": {"n0", "n1"}})
	for _, tc := range []struct {
		name string
		buf  []byte
	}{
		{"empty-buffer", nil},
		{"truncated", valid[:len(valid)-2]},
		{"trailing-garbage", append(append([]byte(nil), valid...), 0xff)},
		{"huge-count", []byte{0xff, 0xff, 0xff, 0xff, 0x0f}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := DecodeNotifyMap(tc.buf); err == nil {
				t.Fatal("corrupt notify map decoded")
			}
		})
	}
}

// TestStoreServerServesEngineStore builds an index in-process and then
// reads one node's store back through the exported service handlers —
// the same byte path the cluster daemon serves.
func TestStoreServerServesEngineStore(t *testing.T) {
	col := testCollection(t, 40)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 3, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	m := eng.net.Members()[0]

	raw, err := eng.net.CallService(m.Addr(), SvcStats, nil)
	if err != nil {
		t.Fatal(err)
	}
	st, err := DecodeStoreStats(raw)
	if err != nil {
		t.Fatal(err)
	}
	if st.PostsTotal() == 0 || st.KeysTotal() == 0 {
		t.Fatalf("empty store stats: %+v", st)
	}
	// Stats served over RPC must agree with the engine's direct sweep.
	if want := eng.Stats().PerNode[m.ID()]; st.PostsTotal() != want {
		t.Fatalf("SvcStats postings %d, engine sweep %d", st.PostsTotal(), want)
	}

	rawCensus, err := eng.net.CallService(m.Addr(), SvcCensus, nil)
	if err != nil {
		t.Fatal(err)
	}
	census, err := DecodeCensus(rawCensus)
	if err != nil {
		t.Fatal(err)
	}
	store := eng.stores[m.ID()].store
	keys := store.keyList()
	if len(keys) == 0 || len(census) != len(keys) {
		t.Fatalf("census of %d copies, store holds %d keys", len(census), len(keys))
	}
	for i, c := range census {
		if want, _ := store.entryFingerprint(keys[i]); c.Key != keys[i] || c.FP != want {
			t.Fatalf("census copy %d = %+v, store has %q %+v", i, c, keys[i], want)
		}
	}
	// Export the first and last keys in one call, in request order.
	want := []string{keys[len(keys)-1], keys[0]}
	rawExp, err := eng.net.CallService(m.Addr(), SvcExport, postings.EncodeKeyList(nil, want))
	if err != nil {
		t.Fatal(err)
	}
	items, err := replica.DecodeBatch(rawExp)
	if err != nil || len(items) != len(want) {
		t.Fatalf("export: %d items, err %v", len(items), err)
	}
	for i, it := range items {
		blob, _ := store.exportEntry(want[i])
		if it.Key != want[i] || !reflect.DeepEqual(it.Blob, blob) {
			t.Fatalf("export item %d (%q) diverges from the direct export of %q", i, it.Key, want[i])
		}
	}
	// A key the store does not hold fails the export; it is not skipped.
	if _, err := eng.net.CallService(m.Addr(), SvcExport, postings.EncodeKeyList(nil, []string{"no:such:key"})); err == nil {
		t.Fatal("export of an absent key succeeded")
	}
}
