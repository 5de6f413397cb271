package postings

import (
	"bytes"
	"testing"

	"repro/internal/fuzzcorpus"
)

// Fuzz targets for the postings wire codec: the key-list frame of the
// multi-key fetch RPC and the keyed-message batch of the insert RPC.
// Both decoders read attacker-controllable bytes, so the contract is:
// no panic, no allocation sized from an unbacked declared count, and
// every accepted input re-encodes to exactly itself (scores travel as
// exact float bits, so byte comparison is NaN-safe).

func keyListSeeds() [][]byte {
	return [][]byte{
		EncodeKeyList(nil, []string{"alpha"}),
		EncodeKeyList(nil, []string{"alpha", "beta gamma", ""}),
		EncodeKeyList(nil, nil),
		{0xff, 0xff, 0xff, 0xff},
	}
}

func keyedBatchSeeds() [][]byte {
	one := KeyedMessage{Key: "alpha beta", Aux: 3, List: List{{Doc: 1, Score: 0.5}, {Doc: 8, Score: 2}}}
	two := KeyedMessage{Key: "gamma", Aux: 0, List: List{{Doc: 2}}}
	return [][]byte{
		EncodeKeyedBatch(nil, []KeyedMessage{one}),
		EncodeKeyedBatch(nil, []KeyedMessage{one, two}),
		EncodeKeyedBatch(nil, nil),
		EncodeKeyed(nil, two),
		{0x01},
	}
}

func FuzzDecodeKeyList(f *testing.F) {
	for _, seed := range keyListSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		keys, err := DecodeKeyList(data)
		if err != nil {
			return
		}
		if enc := EncodeKeyList(nil, keys); !bytes.Equal(enc, data) {
			t.Fatalf("accepted key list is not canonical:\n input %x\nre-enc %x", data, enc)
		}
	})
}

func FuzzDecodeKeyedBatch(f *testing.F) {
	for _, seed := range keyedBatchSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		ms, err := DecodeKeyedBatch(data)
		if err != nil {
			return
		}
		if enc := EncodeKeyedBatch(nil, ms); !bytes.Equal(enc, data) {
			t.Fatalf("accepted batch is not canonical:\n input %x\nre-enc %x", data, enc)
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
		"FuzzDecodeKeyList":    keyListSeeds(),
		"FuzzDecodeKeyedBatch": keyedBatchSeeds(),
	} {
		if err := fuzzcorpus.Write(name, seeds); err != nil {
			t.Fatal(err)
		}
	}
}
