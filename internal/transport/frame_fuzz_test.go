package transport

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/fuzzcorpus"
)

// The frame reader is the first code a peer's bytes reach, ahead of
// every codec the other fuzz targets cover: it trusts a 4-byte length
// before a single payload byte has arrived.

func readFrameSeeds() [][]byte {
	// announce is a header claiming n payload bytes, followed by body.
	announce := func(status byte, n uint32, body string) []byte {
		return append(binary.BigEndian.AppendUint32([]byte{status}, n), body...)
	}
	return [][]byte{
		announce(statusOK, 5, "hello"),
		append(announce(statusOK, 0, ""), announce(statusOK, 2, "ok")...), // two frames back to back
		announce(statusErr, 4, "boom"),
		announce(statusOK, MaxFrameSize, "\x01\x02\x03"), // announces 64 MiB, sends 3 bytes
		announce(statusOK, MaxFrameSize+1, ""),           // over the limit: refused on the header
		announce(statusOK, readStep+1, "\xff"),
		{0, 0, 0}, // torn header
		{},
	}
}

// allocLimit is the most readPayload may hold when only supplied bytes
// arrive: one step ahead of them, a step being readStep or — once past
// it — three times what was read.
func allocLimit(supplied int) int { return supplied + max(readStep, 3*supplied) }

func FuzzReadFrame(f *testing.F) {
	for _, seed := range readFrameSeeds() {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		fc := newFrameConn(streamConn{r: bytes.NewReader(data)})
		rest := data
		for {
			status, payload, err := fc.readFrame()
			if err != nil {
				break
			}
			enc := encodeFrame(t, status, payload)
			if len(enc) > len(rest) || !bytes.Equal(enc, rest[:len(enc)]) {
				t.Fatalf("accepted frame (status %d, %d bytes) does not re-encode to the bytes it was read from", status, len(payload))
			}
			rest = rest[len(enc):]
		}
		// What stopped the reader: if it is a well-formed header whose
		// payload was cut short, the cut must bound the allocation.
		if len(rest) < frameHeaderSize {
			return
		}
		n := int(binary.BigEndian.Uint32(rest[1:frameHeaderSize]))
		supplied := len(rest) - frameHeaderSize
		if n > MaxFrameSize {
			return
		}
		if n <= supplied {
			t.Fatalf("reader refused a complete %d-byte frame", n)
		}
		got, err := readPayload(bytes.NewReader(rest[frameHeaderSize:]), n)
		if err == nil {
			t.Fatalf("truncated payload (%d of %d bytes) was accepted", supplied, n)
		}
		if cap(got) > allocLimit(supplied) {
			t.Fatalf("%d of %d bytes arrived, %d allocated, want <= %d", supplied, n, cap(got), allocLimit(supplied))
		}
	})
}

// TestWriteFuzzCorpus regenerates the committed seed corpus; see
// package fuzzcorpus.
func TestWriteFuzzCorpus(t *testing.T) {
	if !fuzzcorpus.Enabled() {
		t.Skipf("set %s=1 to regenerate testdata/fuzz", fuzzcorpus.EnvVar)
	}
	if err := fuzzcorpus.Write("FuzzReadFrame", readFrameSeeds()); err != nil {
		t.Fatal(err)
	}
}
