package postings

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

func TestKeyedRoundTrip(t *testing.T) {
	in := KeyedMessage{
		Key:  "alpha\x1fbeta",
		Aux:  (412 << 2) | 2,
		List: List{{Doc: 3, Score: 1.5}, {Doc: 9, Score: 0.25}},
	}
	buf := EncodeKeyed(nil, in)
	out, consumed, err := DecodeKeyed(buf)
	if err != nil {
		t.Fatal(err)
	}
	if consumed != len(buf) {
		t.Fatalf("consumed %d of %d bytes", consumed, len(buf))
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
	}
}

func TestKeyListRoundTrip(t *testing.T) {
	cases := [][]string{
		nil,
		{"one"},
		{"a", "", "term1\x1fterm2", "a much longer key string than the others"},
	}
	for _, keys := range cases {
		buf := EncodeKeyList(nil, keys)
		got, err := DecodeKeyList(buf)
		if err != nil {
			t.Fatalf("keys %q: %v", keys, err)
		}
		if len(got) != len(keys) {
			t.Fatalf("keys %q: got %d back", keys, len(got))
		}
		for i := range keys {
			if got[i] != keys[i] {
				t.Fatalf("key %d: %q != %q", i, got[i], keys[i])
			}
		}
	}
}

func TestKeyListAppendsToBuffer(t *testing.T) {
	prefix := []byte{0xde, 0xad}
	buf := EncodeKeyList(prefix, []string{"x", "y"})
	if buf[0] != 0xde || buf[1] != 0xad {
		t.Fatal("prefix clobbered")
	}
	got, err := DecodeKeyList(buf[2:])
	if err != nil || len(got) != 2 {
		t.Fatalf("decode after prefix: %v, %d keys", err, len(got))
	}
}

func TestKeyListCorrupt(t *testing.T) {
	valid := EncodeKeyList(nil, []string{"alpha", "beta", "gamma"})
	cases := map[string][]byte{
		"empty input":         {},
		"truncated mid-key":   valid[:len(valid)-3],
		"truncated to count":  valid[:1],
		"huge count":          {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"key length past end": {1, 200, 'a'},
	}
	for name, buf := range cases {
		if _, err := DecodeKeyList(buf); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: got %v, want ErrCorrupt", name, err)
		}
	}
}

func TestKeyListCorruptNeverPanics(t *testing.T) {
	valid := EncodeKeyList(nil, []string{"alpha", "beta"})
	for cut := 0; cut < len(valid); cut++ {
		if _, err := DecodeKeyList(valid[:cut]); err != nil && !errors.Is(err, ErrCorrupt) {
			t.Fatalf("cut %d: unexpected error class %v", cut, err)
		}
	}
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		DecodeKeyList(mut) // must not panic; error or garbage both fine
	}
}

// codecSink keeps the measured codec results alive across runs.
var codecSink any

// TestCodecAllocCeilings holds the fetch RPC's codecs and the lattice
// accumulator's fold to their allocations per call on fixed inputs — a
// 256-posting list, an 8-key batch of 12-posting lists, sixteen
// 48-posting lists. A ceiling is the count the code has today: adding
// one allocation to the per-fetch path fails here.
func TestCodecAllocCeilings(t *testing.T) {
	list := make(List, 256)
	for i := range list {
		list[i] = Posting{Doc: corpus.DocID(i*7 + 3), Score: float32(i%13) + 0.5}
	}
	var batch []KeyedMessage
	for i := 0; i < 8; i++ {
		sub := make(List, 12)
		for j := range sub {
			sub[j] = Posting{Doc: corpus.DocID(j*11 + i), Score: float32(j) + 0.25}
		}
		batch = append(batch, KeyedMessage{Key: fmt.Sprintf("term%02d term%02d", i, i+1), Aux: uint64(140+i)<<2 | 2, List: sub})
	}
	var lists []List
	for i := 0; i < 16; i++ {
		l := make(List, 48)
		for j := range l {
			l[j] = Posting{Doc: corpus.DocID(j*8 + i%4), Score: float32(i+j) * 0.125}
		}
		lists = append(lists, l)
	}
	listBytes, batchBytes := Encode(nil, list), EncodeKeyedBatch(nil, batch)
	if back, _, err := Decode(listBytes); err != nil || !reflect.DeepEqual(back, list) {
		t.Fatalf("posting list does not round-trip: %v", err)
	}
	if back, err := DecodeKeyedBatch(batchBytes); err != nil || !reflect.DeepEqual(back, batch) {
		t.Fatalf("keyed batch does not round-trip: %v", err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"postings encode", 2, func() { codecSink = Encode(nil, list) }},
		{"postings decode", 2, func() { codecSink, _, _ = Decode(listBytes) }},
		{"keyed-batch encode", 2, func() { codecSink = EncodeKeyedBatch(nil, batch) }},
		{"keyed-batch decode", 11, func() { codecSink, _ = DecodeKeyedBatch(batchBytes) }},
		{"UnionAll fold", 3, func() { codecSink = UnionAll(lists) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per call, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
