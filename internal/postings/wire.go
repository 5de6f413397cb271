package postings

import (
	"encoding/binary"

	"repro/internal/wire"
)

// Keyed wire format for index RPCs: uvarint key length, key bytes,
// uvarint flags/df field, encoded posting list. Both the single-term
// baseline and the HDK engine ship (key, posting-list) pairs, so the
// codec lives here.

// KeyedMessage is a (key, aux, posting list) triple on the wire. Aux is a
// small unsigned field whose meaning is protocol-specific (e.g. the global
// document frequency accompanying a fetched list).
type KeyedMessage struct {
	Key  string
	Aux  uint64
	List List
}

// KeyedSize returns the exact wire size of one keyed message.
func KeyedSize(m KeyedMessage) int {
	return UvarintSize(uint64(len(m.Key))) + len(m.Key) + UvarintSize(m.Aux) + EncodedSize(m.List)
}

// EncodeKeyed appends the message to buf.
func EncodeKeyed(buf []byte, m KeyedMessage) []byte {
	buf = wire.AppendString(buf, m.Key)
	buf = binary.AppendUvarint(buf, m.Aux)
	return Encode(buf, m.List)
}

// readKeyed reads one keyed message; after r.Share its key substrings
// the shared copy instead of allocating.
func readKeyed(r *wire.Reader) KeyedMessage {
	key := r.String(r.Uvarint())
	aux := r.Uvarint()
	return KeyedMessage{Key: key, Aux: aux, List: ReadList(r)}
}

// KeyListSize returns the exact wire size of a count-prefixed key list.
func KeyListSize(keys []string) int {
	size := UvarintSize(uint64(len(keys)))
	for _, k := range keys {
		size += UvarintSize(uint64(len(k))) + len(k)
	}
	return size
}

// EncodeKeyList appends a count-prefixed list of bare keys to buf — the
// request side of batched fetches, where no aux field or posting list
// accompanies the keys. The output is written into at most one fresh
// allocation.
func EncodeKeyList(buf []byte, keys []string) []byte {
	if need := KeyListSize(keys); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = binary.AppendUvarint(buf, uint64(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
	}
	return buf
}

// DecodeKeyList parses a count-prefixed key list. The returned keys
// share ONE string copy of the input (an N-key request costs two
// allocations, not N+1); a caller that retains a key past the request's
// lifetime must clone it or it pins the whole copy.
func DecodeKeyList(buf []byte) ([]string, error) {
	r := wire.NewReader(buf)
	n := r.Count(1)
	r.Share()
	out := make([]string, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, r.String(r.Uvarint()))
	}
	if !r.Done() {
		return nil, ErrCorrupt
	}
	return out, nil
}

// EncodeKeyedBatch encodes a batch of keyed messages prefixed by a
// count, into at most one fresh allocation.
func EncodeKeyedBatch(buf []byte, ms []KeyedMessage) []byte {
	need := UvarintSize(uint64(len(ms)))
	for _, m := range ms {
		need += KeyedSize(m)
	}
	if cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = binary.AppendUvarint(buf, uint64(len(ms)))
	for _, m := range ms {
		buf = EncodeKeyed(buf, m)
	}
	return buf
}

// DecodeKeyedBatch parses a batch. Like DecodeKeyList, all returned
// keys substring one copy of the input; retaining a key long-term
// requires cloning it.
func DecodeKeyedBatch(buf []byte) ([]KeyedMessage, error) {
	r := wire.NewReader(buf)
	n := r.Count(3) // a message is at least a key length, an aux and a list count
	r.Share()
	out := make([]KeyedMessage, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, readKeyed(&r))
	}
	if !r.Done() {
		return nil, ErrCorrupt
	}
	return out, nil
}
