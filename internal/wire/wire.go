// Package wire is the one bounded cursor every decoder in the repository
// reads through. A Reader answers, in one place, the question each codec
// used to answer its own way: is this declared length or count backed by
// the bytes that remain? Any read that overruns the input, or meets a
// varint encoded in more bytes than it needs, fails the Reader; every
// later read then returns a zero value, so a decoder reads its fields
// straight through and checks Done (or Err) once at the end.
//
// Rejecting non-minimal varints makes every accepted input canonical:
// together with Done it means a decoded value re-encodes to exactly the
// bytes it came from, which is what lets raw request bytes serve as a
// cache key and an imported blob's checksum stand for its re-export.
package wire

import (
	"encoding/binary"
	"errors"
)

// ErrCorrupt is reported by Err once a read has failed.
var ErrCorrupt = errors.New("wire: corrupt encoding")

// Reader is a sequential decoder over a byte slice with a sticky error.
// It is a small value meant to live on the decoding function's stack:
// take it with NewReader and pass its address to helpers.
type Reader struct {
	buf    []byte
	off    int
	shared string // set by Share: one string copy of buf that String slices
	bad    bool
}

// NewReader returns a Reader positioned at the start of b.
func NewReader(b []byte) Reader { return Reader{buf: b} }

// Share makes one string copy of the whole input; String then returns
// substrings of it, so decoding N strings costs one allocation instead of
// N. A caller that keeps such a string past the decoded value's lifetime
// must clone it, or it pins the whole copy.
func (r *Reader) Share() { r.shared = string(r.buf) }

// Fail marks the input corrupt: a decoder calls it when a field it read
// is out of range, so the one check at the end covers semantic errors
// too.
func (r *Reader) Fail() {
	r.bad = true
	r.off = len(r.buf)
}

// Byte reads one byte.
func (r *Reader) Byte() byte {
	if r.off >= len(r.buf) {
		r.Fail()
		return 0
	}
	b := r.buf[r.off]
	r.off++
	return b
}

// Uvarint reads one unsigned varint in its minimal encoding; a padded
// one (a trailing 0x00 group, such as 8a 00 for 10) fails the Reader.
// It is a loop rather than a call to binary.Uvarint so that it stays
// within the inlining budget: postings decode calls it once per posting.
func (r *Reader) Uvarint() uint64 {
	var v uint64
	for i, b := range r.buf[r.off:] {
		if i == 9 && b > 1 {
			break // overflows 64 bits
		}
		if b < 0x80 {
			if i > 0 && b == 0 {
				break // non-minimal
			}
			r.off += i + 1
			return v | uint64(b)<<(7*i)
		}
		v |= uint64(b&0x7f) << (7 * i)
	}
	r.Fail()
	return 0
}

// Count reads a uvarint item count and returns it only if the remaining
// input could hold that many items of at least minBytesPerItem bytes
// each, so a count is safe to size an allocation with. minBytesPerItem
// must be at least 1.
func (r *Reader) Count(minBytesPerItem int) int {
	n := r.Uvarint()
	if n > uint64(r.Len()/minBytesPerItem) {
		r.Fail()
		return 0
	}
	return int(n)
}

// Bytes returns the next n bytes without copying.
func (r *Reader) Bytes(n uint64) []byte {
	if n > uint64(r.Len()) {
		r.Fail()
		return nil
	}
	b := r.buf[r.off : r.off+int(n)]
	r.off += int(n)
	return b
}

// String returns the next n bytes as a string: a substring of the shared
// copy after Share, a fresh copy otherwise.
func (r *Reader) String(n uint64) string {
	if n > uint64(r.Len()) {
		r.Fail()
		return ""
	}
	var s string
	if r.shared != "" {
		s = r.shared[r.off : r.off+int(n)]
	} else {
		s = string(r.buf[r.off : r.off+int(n)])
	}
	r.off += int(n)
	return s
}

// Uint32LE reads a fixed-width little-endian uint32.
func (r *Reader) Uint32LE() uint32 {
	if b := r.buf[r.off:]; len(b) >= 4 {
		r.off += 4
		return binary.LittleEndian.Uint32(b)
	}
	r.Fail()
	return 0
}

// Uint64LE reads a fixed-width little-endian uint64.
func (r *Reader) Uint64LE() uint64 {
	if b := r.buf[r.off:]; len(b) >= 8 {
		r.off += 8
		return binary.LittleEndian.Uint64(b)
	}
	r.Fail()
	return 0
}

// Rest returns every remaining byte without copying and consumes them.
func (r *Reader) Rest() []byte {
	b := r.buf[r.off:]
	r.off = len(r.buf)
	return b
}

// Len returns the number of unread bytes.
func (r *Reader) Len() int { return len(r.buf) - r.off }

// Err returns ErrCorrupt once any read has failed, nil before.
func (r *Reader) Err() error {
	if r.bad {
		return ErrCorrupt
	}
	return nil
}

// Done reports whether the input was read to its end with no failed
// read: a decoder that accepts only Done inputs rejects trailing bytes.
func (r *Reader) Done() bool { return !r.bad && r.off == len(r.buf) }

// AppendBytes appends b with a uvarint length prefix, the encoding a
// Reader reads back with Bytes(Uvarint()).
func AppendBytes(buf, b []byte) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(b))), b...)
}

// AppendString appends s with a uvarint length prefix, the encoding a
// Reader reads back with String(Uvarint()).
func AppendString(buf []byte, s string) []byte {
	return append(binary.AppendUvarint(buf, uint64(len(s))), s...)
}
