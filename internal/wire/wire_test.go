package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"testing"
)

func TestReaderRoundTrip(t *testing.T) {
	buf := []byte{7}
	buf = binary.AppendUvarint(buf, 1<<40)
	buf = AppendString(buf, "alpha")
	buf = AppendBytes(buf, []byte{1, 2, 3})
	buf = binary.LittleEndian.AppendUint32(buf, 0xdeadbeef)
	buf = binary.LittleEndian.AppendUint64(buf, 1<<63|5)
	buf = binary.AppendUvarint(buf, 2)
	buf = append(buf, 9, 9, 9)

	r := NewReader(buf)
	if b := r.Byte(); b != 7 {
		t.Fatalf("Byte = %d", b)
	}
	if v := r.Uvarint(); v != 1<<40 {
		t.Fatalf("Uvarint = %d", v)
	}
	if s := r.String(r.Uvarint()); s != "alpha" {
		t.Fatalf("String = %q", s)
	}
	if b := r.Bytes(r.Uvarint()); !bytes.Equal(b, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", b)
	}
	if v := r.Uint32LE(); v != 0xdeadbeef {
		t.Fatalf("Uint32LE = %x", v)
	}
	if v := r.Uint64LE(); v != 1<<63|5 {
		t.Fatalf("Uint64LE = %x", v)
	}
	if n := r.Count(1); n != 2 {
		t.Fatalf("Count = %d", n)
	}
	if r.Done() {
		t.Fatal("Done with three bytes unread")
	}
	if rest := r.Rest(); len(rest) != 3 || !r.Done() || r.Err() != nil {
		t.Fatalf("Rest = %v, Done = %v, Err = %v", rest, r.Done(), r.Err())
	}
}

// TestReaderRejects pins every way a read fails, and that the failure
// sticks: once bad, every read returns its zero value and Done is false.
func TestReaderRejects(t *testing.T) {
	for name, c := range map[string]struct {
		in   []byte
		read func(r *Reader)
	}{
		"empty byte":             {nil, func(r *Reader) { r.Byte() }},
		"truncated varint":       {[]byte{0x80}, func(r *Reader) { r.Uvarint() }},
		"overlong varint":        {bytes.Repeat([]byte{0xff}, 11), func(r *Reader) { r.Uvarint() }},
		"non-minimal 10":         {[]byte{0x8a, 0x00}, func(r *Reader) { r.Uvarint() }},
		"non-minimal 0":          {[]byte{0x80, 0x80, 0x00}, func(r *Reader) { r.Uvarint() }},
		"length past end":        {[]byte{4, 'a', 'b'}, func(r *Reader) { r.String(r.Uvarint()) }},
		"bytes past end":         {[]byte{1, 2}, func(r *Reader) { r.Bytes(3) }},
		"short uint32":           {[]byte{1, 2, 3}, func(r *Reader) { r.Uint32LE() }},
		"short uint64":           {[]byte{1, 2, 3, 4, 5, 6, 7}, func(r *Reader) { r.Uint64LE() }},
		"count past end":         {[]byte{3, 0, 0}, func(r *Reader) { r.Count(1) }},
		"count times width":      {[]byte{2, 0, 0, 0}, func(r *Reader) { r.Count(2) }},
		"huge count":             {binary.AppendUvarint(nil, 1<<62), func(r *Reader) { r.Count(1) }},
		"semantic failure":       {[]byte{1}, func(r *Reader) { r.Byte(); r.Fail() }},
		"failure before trailer": {[]byte{0x80, 0x00, 1}, func(r *Reader) { r.Uvarint() }},
	} {
		r := NewReader(c.in)
		c.read(&r)
		if r.Done() || !errors.Is(r.Err(), ErrCorrupt) {
			t.Errorf("%s: Done = %v, Err = %v", name, r.Done(), r.Err())
		}
		if r.Byte() != 0 || r.Uvarint() != 0 || r.Count(1) != 0 || len(r.Rest()) != 0 {
			t.Errorf("%s: a read after the failure returned data", name)
		}
	}
}

// TestCountBoundary accepts a count exactly backed by the remaining bytes.
func TestCountBoundary(t *testing.T) {
	r := NewReader([]byte{2, 0, 0, 0, 0})
	if n := r.Count(2); n != 2 || r.Err() != nil {
		t.Fatalf("Count(2) = %d, %v", n, r.Err())
	}
}

// TestSharedStringsAllocateOnce holds Share to its promise, and the
// Reader itself to the stack: three strings cost one allocation.
func TestSharedStringsAllocateOnce(t *testing.T) {
	var buf []byte
	for _, s := range []string{"alpha", "beta", "gamma"} {
		buf = AppendString(buf, s)
	}
	var sink []string
	allocs := testing.AllocsPerRun(100, func() {
		r := NewReader(buf)
		r.Share()
		a, b, c := r.String(r.Uvarint()), r.String(r.Uvarint()), r.String(r.Uvarint())
		if !r.Done() || a != "alpha" || b != "beta" || c != "gamma" {
			t.Fatalf("decoded %q %q %q, Done = %v", a, b, c, r.Done())
		}
		sink = append(sink[:0], a)
	})
	if allocs != 1 {
		t.Fatalf("%.0f allocs per decode, want 1", allocs)
	}
}
