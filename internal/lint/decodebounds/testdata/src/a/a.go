// Fixtures for the decodebounds analyzer, one rule at a time.
package a

import (
	"bufio"
	"encoding/binary"

	"wire"
)

// Rule 1, positive: raw varint reads outside package wire, in any
// function, whatever its name.
func buildTable(buf []byte) uint64 {
	v, _ := binary.Uvarint(buf) // want `binary.Uvarint outside internal/wire`
	return v
}

func signed(buf []byte) int64 {
	v, _ := binary.Varint(buf) // want `binary.Varint outside internal/wire`
	return v
}

func stream(br *bufio.Reader) (uint64, error) {
	return binary.ReadUvarint(br) // want `binary.ReadUvarint outside internal/wire`
}

// Rule 1, negative: encoders and fixed-width reads are not varint reads.
func encode(buf []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint32(binary.AppendUvarint(buf, v), 7)
}

// Rule 2, positive: allocate straight from a decoded uvarint.
func decodeNoCheck(r *wire.Reader) []string {
	return make([]string, 0, r.Uvarint()) // want `make sized from a decoded wire.Reader.Uvarint`
}

// Rule 2, positive: the taint flows through assignments and conversions.
func decodeViaConversion(r *wire.Reader) []uint64 {
	n := r.Uvarint()
	count := int(n)
	return make([]uint64, count) // want `make sized from a decoded wire.Reader.Uvarint`
}

// Rule 2, positive: a compare against a constant cap is not a bound on
// the remaining input.
func decodeCapped(r *wire.Reader) map[string]int {
	var n = r.Uvarint()
	if n > 64 {
		return nil
	}
	return make(map[string]int, n) // want `make sized from a decoded wire.Reader.Uvarint`
}

// Rule 2, negative: Count bounds the size by the remaining input, and a
// cap may follow it.
func decodeCounted(r *wire.Reader) []string {
	n := r.Count(1)
	if n > 64 {
		return nil
	}
	return make([]string, 0, n)
}

// Rule 2, negative: clamping through the min builtin bounds on the spot.
func decodeClamped(r *wire.Reader) []string {
	return make([]string, 0, min(r.Uvarint(), 256))
}

// Rule 2, negative: a reassignment from a clean source clears the taint.
func decodeReassigned(r *wire.Reader) []byte {
	n, k := r.Uvarint(), 4
	n = 16
	return make([]byte, n, k)
}

// Rule 2, negative: sizes that never saw the wire are fine.
func decodeFixed() []byte {
	return make([]byte, 64)
}
