package core

import (
	"bytes"
	"encoding/hex"
	"slices"
	"testing"

	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/replica"
	"repro/internal/transport"
)

// inventoryStore is the fixed two-key store the inventory goldens and
// the census fuzz seeds are cut from.
func inventoryStore() *StoreServer {
	srv := newStoreServer(storeCfg())
	srv.store.insert("hdk", 1, postings.List{{Doc: 1, Score: 1}}, "peer-0")
	srv.store.insert("hdk\x1fndk", 2, postings.List{{Doc: 9, Score: 2}}, "peer-1")
	return srv
}

// TestInventoryWireGolden pins the repair inventory's bytes for a fixed
// two-key store, as the registered handlers answer them: the hdk.census
// request (empty) and response (count; per key its length-prefixed
// name, uvarint df and 8-byte little-endian checksum, keys ascending),
// and an hdk.export request (a key list) and response (a replica repair
// batch, in request order). Sweeps on other members parse these.
func TestInventoryWireGolden(t *testing.T) {
	const (
		censusResp = "02" +
			"0368646b" + "01" + "40b2085b59f352b9" + // "hdk", df 1, checksum
			"0768646b1f6e646b" + "01" + "c33e0eb12ab0569e" // "hdk\x1fndk", df 1, checksum
		exportReq  = "02" + "0768646b1f6e646b" + "0368646b"
		exportResp = "02" +
			"0768646b1f6e646b" + "11" + "0201000106706565722d31010900000040" + // size 2, df 1, peer-1, doc 9
			"0368646b" + "11" + "0101000106706565722d3001010000803f" // size 1, df 1, peer-0, doc 1
	)
	net := overlay.NewNetwork(transport.NewInProc())
	node, err := net.AddNode("n0")
	if err != nil {
		t.Fatal(err)
	}
	inventoryStore().Attach(node)
	call := func(svc string, req []byte) string {
		t.Helper()
		raw, err := net.CallService("n0", svc, req)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(raw)
	}
	if got := call(SvcCensus, nil); got != censusResp {
		t.Fatalf("hdk.census = %s, want %s", got, censusResp)
	}
	req := postings.EncodeKeyList(nil, []string{"hdk\x1fndk", "hdk"})
	if got := hex.EncodeToString(req); got != exportReq {
		t.Fatalf("hdk.export request = %s, want %s", got, exportReq)
	}
	if got := call(SvcExport, req); got != exportResp {
		t.Fatalf("hdk.export = %s, want %s", got, exportResp)
	}
	if _, err := net.CallService("n0", SvcCensus, []byte{0}); err == nil {
		t.Fatal("hdk.census accepted a non-empty request")
	}

	// The client side reads the same bytes back.
	inv := RemoteInventory{Call: net.CallService}
	copies, err := inv.Census(node)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := hex.DecodeString(censusResp)
	if enc := appendCensus(nil, copies); !bytes.Equal(enc, raw) {
		t.Fatalf("census re-encodes to %x", enc)
	}
	items, err := inv.Export(node, []string{"hdk\x1fndk", "hdk"})
	if err != nil {
		t.Fatal(err)
	}
	raw, _ = hex.DecodeString(exportResp)
	if enc := replica.EncodeBatch(nil, items); !bytes.Equal(enc, raw) {
		t.Fatalf("export items re-encode to %x", enc)
	}
	if _, err := inv.Export(node, []string{"hdk", "no:such:key"}); err == nil {
		t.Fatal("export of a key the member does not hold succeeded")
	}
}

// censusSeeds are FuzzDecodeCensus's committed seeds: the golden census,
// an empty one, and non-canonical variants the decoder must reject.
func censusSeeds() [][]byte {
	copies := inventoryStore().store.census()
	valid := appendCensus(nil, copies)
	return [][]byte{
		valid,
		appendCensus(nil, nil),
		appendCensus(nil, []replica.Copy{copies[1], copies[0]}), // descending
		appendCensus(nil, []replica.Copy{copies[0], copies[0]}), // duplicate
		append(slices.Clone(valid), 0),                          // trailing byte
		valid[:len(valid)-1],                                    // truncated checksum
		{0xff, 0xff, 0xff, 0xff, 0x0f},                          // absurd count
	}
}

// FuzzDecodeCensus: the census decoder never panics, sizes its
// allocation only from what the input can hold, and accepts only
// canonical bytes — an accepted census has strictly ascending keys and
// re-encodes to exactly its input.
func FuzzDecodeCensus(f *testing.F) {
	for _, seed := range censusSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		copies, err := DecodeCensus(data)
		if err != nil {
			return
		}
		if len(copies) > len(data)/10 {
			t.Fatalf("%d copies from %d bytes", len(copies), len(data))
		}
		for i := 1; i < len(copies); i++ {
			if copies[i].Key <= copies[i-1].Key {
				t.Fatalf("accepted keys out of order: %q then %q", copies[i-1].Key, copies[i].Key)
			}
		}
		if enc := appendCensus(nil, copies); !bytes.Equal(enc, data) {
			t.Fatalf("accepted census is not canonical:\n input %x\nre-enc %x", data, enc)
		}
	})
}
