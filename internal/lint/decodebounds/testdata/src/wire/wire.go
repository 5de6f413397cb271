// Package wire is a miniature of repro/internal/wire: the analyzer
// matches its Reader by package-path tail.
package wire

import "encoding/binary"

type Reader struct {
	buf []byte
	off int
}

// Negative: package wire is the one place raw varint reads belong.
func (r *Reader) Uvarint() uint64 {
	v, n := binary.Uvarint(r.buf[r.off:])
	if n <= 0 {
		return 0
	}
	r.off += n
	return v
}

func (r *Reader) Count(minBytesPerItem int) int {
	n := r.Uvarint()
	if n > uint64((len(r.buf)-r.off)/minBytesPerItem) {
		return 0
	}
	return int(n)
}
