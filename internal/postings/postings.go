// Package postings implements the posting-list primitives shared by every
// index in the repository: sorted document-id lists with per-posting
// relevance scores, set operations (union, intersection, merge), top-k
// truncation by score (the paper's "top-DFmax postings associated with
// NDKs"), and a compact varint-delta wire codec used to account for and
// transmit index traffic.
package postings

import (
	"cmp"
	"encoding/binary"
	"errors"
	"math"
	"slices"
	"sort"

	"repro/internal/corpus"
	"repro/internal/wire"
)

// Posting associates a document with the relevance score its index-side
// peer computed for the key (the paper's distributed content-based
// ranking: postings travel with their partial scores).
type Posting struct {
	Doc   corpus.DocID
	Score float32
}

// List is a posting list sorted by ascending document id with unique docs.
type List []Posting

// Docs extracts the document ids.
func (l List) Docs() []corpus.DocID {
	out := make([]corpus.DocID, len(l))
	for i, p := range l {
		out[i] = p.Doc
	}
	return out
}

// IsSorted reports whether the list is strictly sorted by doc id (the
// invariant all package operations assume and preserve).
func (l List) IsSorted() bool {
	for i := 1; i < len(l); i++ {
		if l[i-1].Doc >= l[i].Doc {
			return false
		}
	}
	return true
}

// Contains reports whether doc is present (binary search).
func (l List) Contains(doc corpus.DocID) bool {
	i := sort.Search(len(l), func(i int) bool { return l[i].Doc >= doc })
	return i < len(l) && l[i].Doc == doc
}

// Union merges two sorted lists; on common docs, scores add (query-side
// score aggregation across keys: a document reached via several keys
// accumulates their partial scores).
func Union(a, b List) List {
	return UnionInto(nil, a, b)
}

// UnionInto is Union with a caller-owned destination buffer: the merge
// writes into dst's backing array (grown once if too small) so a caller
// folding many unions can ping-pong two buffers instead of allocating
// per fold. dst must not alias a or b. The merge order and score
// additions are identical to Union, so results stay bit-identical.
func UnionInto(dst, a, b List) List {
	if need := len(a) + len(b); cap(dst) < need || dst == nil {
		dst = make(List, 0, need)
	}
	out := dst[:0]
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Doc < b[j].Doc:
			out = append(out, a[i])
			i++
		case a[i].Doc > b[j].Doc:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Posting{Doc: a[i].Doc, Score: a[i].Score + b[j].Score})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

// Intersect keeps docs present in both lists, adding scores.
func Intersect(a, b List) List {
	if len(b) < len(a) {
		a, b = b, a
	}
	out := make(List, 0, len(a))
	j := 0
	for _, p := range a {
		for j < len(b) && b[j].Doc < p.Doc {
			j++
		}
		if j < len(b) && b[j].Doc == p.Doc {
			out = append(out, Posting{Doc: p.Doc, Score: p.Score + b[j].Score})
			j++
		}
	}
	return out
}

// UnionInPlace is Union(a, b) computed into a's own backing array, for a
// caller that owns a and folds contributions into it over time: a grows
// (amortized, like append) only when its spare capacity cannot hold b,
// and the merge runs from the tails down so nothing is overwritten before
// it is read. The result is element-for-element Union(a, b); a's old
// slice header is dead afterwards, b is only read and must not alias a.
// With a empty the result is b itself — the caller hands b over.
func UnionInPlace(a, b List) List {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 || a[len(a)-1].Doc < b[0].Doc {
		return append(a, b...)
	}
	i, j := len(a)-1, len(b)-1
	a = slices.Grow(a, len(b))[:len(a)+len(b)]
	w := len(a) - 1
	for ; i >= 0 && j >= 0; w-- {
		switch {
		case a[i].Doc > b[j].Doc:
			a[w] = a[i]
			i--
		case a[i].Doc < b[j].Doc:
			a[w] = b[j]
			j--
		default:
			a[w] = Posting{Doc: a[i].Doc, Score: a[i].Score + b[j].Score}
			i--
			j--
		}
	}
	for ; j >= 0; j, w = j-1, w-1 {
		a[w] = b[j]
	}
	if w > i {
		// a[:i+1] never moved, and every doc the lists shared left one
		// slot unused between it and the merged tail at a[w+1:].
		a = append(a[:i+1], a[w+1:]...)
	}
	return a
}

// UnionAll folds Union over many lists, ping-ponging two presized
// buffers so the fold costs two allocations regardless of list count.
func UnionAll(lists []List) List {
	if len(lists) == 0 {
		return nil
	}
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	acc := make(List, 0, total)
	spare := make(List, 0, total)
	for _, l := range lists {
		spare = UnionInto(spare, acc, l)
		acc, spare = spare, acc
	}
	return acc
}

// TopK returns the k highest-scoring postings (ties broken by lower doc
// id), re-sorted by doc id so the result is again a valid List. This is
// the truncation the paper applies to NDK posting lists ("truncated to
// their top-DFmax best elements"). The result is a fresh list of exactly
// min(k, len(l)) postings, so a truncated entry does not keep the longer
// list alive. Selection is one pass against a k-slot heap whose root is
// the worst posting kept: O(n log k), where sorting the whole list was
// O(n log n) and an n-sized copy.
func (l List) TopK(k int) List {
	if k >= len(l) {
		out := make(List, len(l))
		copy(out, l)
		return out
	}
	if k <= 0 {
		return List{}
	}
	out := make(List, k)
	copy(out, l)
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(out, i)
	}
	for _, p := range l[k:] {
		if ranksAhead(p, out[0]) {
			out[0] = p
			siftDown(out, 0)
		}
	}
	slices.SortFunc(out, func(a, b Posting) int { return cmp.Compare(a.Doc, b.Doc) })
	return out
}

// ranksAhead is TopK's total order: higher score first, then lower doc id
// (docs are unique, so no two postings tie).
func ranksAhead(a, b Posting) bool {
	if c := cmp.Compare(a.Score, b.Score); c != 0 {
		return c > 0
	}
	return a.Doc < b.Doc
}

// siftDown restores the heap order below h[i]: every parent ranks behind
// both its children, which keeps the worst posting at the root.
func siftDown(h List, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && ranksAhead(h[c], h[c+1]) {
			c++ // the worse child
		}
		if !ranksAhead(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// wire format: uvarint count, then per posting: uvarint doc-id delta
// (the first doc as is, every later one as its distance from the
// previous doc minus one, so ids stay strictly ascending), float32 score
// bits as fixed 4 bytes.

// ErrCorrupt is returned by Decode on malformed input.
var ErrCorrupt = errors.New("postings: corrupt encoding")

// Encode serializes the list. The caller may pass a reusable buffer;
// either way the output is written into at most one fresh allocation
// (the exact encoded size is computed up front).
func Encode(buf []byte, l List) []byte {
	return EncodeScaled(buf, l, 1)
}

// EncodeScaled serializes the list with every score multiplied by scale
// before its bits hit the wire. The fetch path applies the idf factor
// this way during response encoding, so no intermediate scored list is
// materialized; the multiplication is the same float32 operation a
// scored copy would have applied, so decoded scores are bit-identical.
func EncodeScaled(buf []byte, l List, scale float32) []byte {
	if need := EncodedSize(l); cap(buf)-len(buf) < need {
		grown := make([]byte, len(buf), len(buf)+need)
		copy(grown, buf)
		buf = grown
	}
	buf = binary.AppendUvarint(buf, uint64(len(l)))
	prev := uint64(0)
	first := true
	for _, p := range l {
		cur := uint64(p.Doc)
		var delta uint64
		if first {
			delta = cur
			first = false
		} else {
			delta = cur - prev - 1
		}
		prev = cur
		buf = binary.AppendUvarint(buf, delta)
		score := p.Score
		if scale != 1 {
			// Skipped at scale 1 so Encode round-trips arbitrary score
			// bit patterns (e.g. NaNs in corrupt imports) byte-exactly.
			score *= scale
		}
		buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(score))
	}
	return buf
}

// Decode parses an encoded list, returning the list and the number of
// bytes consumed.
func Decode(buf []byte) (List, int, error) {
	r := wire.NewReader(buf)
	l := ReadList(&r)
	if r.Err() != nil {
		return nil, 0, ErrCorrupt
	}
	return l, len(buf) - r.Len(), nil
}

// ReadList reads one encoded list from r; a malformed list fails r.
func ReadList(r *wire.Reader) List {
	n := r.Count(5) // a posting is at least a 1-byte delta and 4 score bytes
	out := make(List, 0, n)
	prev := uint64(0)
	for i := 0; i < n; i++ {
		delta := r.Uvarint()
		score := math.Float32frombits(r.Uint32LE())
		doc := delta
		if i > 0 {
			doc = prev + delta + 1
		}
		// Bounding delta too keeps prev+delta+1 from wrapping.
		if delta > math.MaxUint32 || doc > math.MaxUint32 {
			r.Fail()
			return nil
		}
		prev = doc
		out = append(out, Posting{Doc: corpus.DocID(doc), Score: score})
	}
	return out
}

// EncodedSize returns the exact wire size of the list without allocating.
func EncodedSize(l List) int {
	size := UvarintSize(uint64(len(l)))
	prev := uint64(0)
	first := true
	for _, p := range l {
		cur := uint64(p.Doc)
		var delta uint64
		if first {
			delta = cur
			first = false
		} else {
			delta = cur - prev - 1
		}
		prev = cur
		size += UvarintSize(delta) + 4
	}
	return size
}

// UvarintSize returns the encoded length of v in bytes — the sizing
// primitive exact-size encoders build on.
func UvarintSize(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
