// Package core implements the paper's contribution: indexing and
// retrieval with Highly Discriminative Keys (HDKs) over a structured P2P
// overlay.
//
// A key is a set of terms (size filtering caps it at smax) whose terms
// co-occur in a document window of size w (proximity filtering) and whose
// global document frequency is at most DFmax while every proper sub-key's
// is above DFmax (redundancy filtering: only intrinsically discriminative
// keys are stored with full posting lists). Non-discriminative keys (NDKs)
// are kept with top-DFmax truncated posting lists. Queries are mapped onto
// the lattice of their term subsets; found keys' bounded posting lists are
// fetched, unioned and ranked — so per-query traffic is bounded by
// nk·DFmax independent of collection size.
package core

import (
	"fmt"
	"strings"

	"repro/internal/corpus"
)

// MaxKeySize is the largest key size the packed representation supports.
// The paper uses smax = 3; the average web query has 2-3 terms, so keys
// beyond 4 terms have no retrieval value.
const MaxKeySize = 4

// noTerm marks unused slots in the packed key.
const noTerm = ^corpus.TermID(0)

// Key is a set of at most MaxKeySize terms in ascending TermID order,
// packed into a comparable value so it can be used as a map key. Every
// constructor and editor below works on the fixed array by value — no
// slice is built, sorted or copied — so the candidate-generation path
// allocates nothing per key (TestKeyAlgebraDoesNotAllocate holds that at
// zero with testing.AllocsPerRun).
type Key struct {
	t [MaxKeySize]corpus.TermID
	n uint8
}

// NewKey builds a key from term ids, sorting and de-duplicating.
// It panics if more than MaxKeySize distinct terms are supplied — key
// sizes are bounded by construction everywhere in the engine.
func NewKey(terms ...corpus.TermID) Key {
	k := Key{t: [MaxKeySize]corpus.TermID{noTerm, noTerm, noTerm, noTerm}}
	for _, t := range terms {
		k.insert(t)
	}
	return k
}

// insert adds t at its sorted position, reporting false (and leaving the
// key unchanged) when t is already a member.
func (k *Key) insert(t corpus.TermID) bool {
	i := int(k.n)
	for i > 0 && k.t[i-1] >= t {
		i--
	}
	if i < int(k.n) && k.t[i] == t {
		return false
	}
	if int(k.n) >= MaxKeySize {
		panic(fmt.Sprintf("core: key larger than %d terms", MaxKeySize))
	}
	copy(k.t[i+1:], k.t[i:k.n])
	k.t[i] = t
	k.n++
	return true
}

// Size returns the number of terms in the key.
func (k Key) Size() int { return int(k.n) }

// Terms returns the term ids in ascending order.
func (k Key) Terms() []corpus.TermID {
	out := make([]corpus.TermID, k.n)
	copy(out, k.t[:k.n])
	return out
}

// Term returns the i-th term.
func (k Key) Term(i int) corpus.TermID { return k.t[i] }

// Contains reports whether the key includes term t.
func (k Key) Contains(t corpus.TermID) bool {
	for i := 0; i < int(k.n); i++ {
		if k.t[i] == t {
			return true
		}
	}
	return false
}

// Extend returns k ∪ {t}. It panics on overflow or duplicate, which the
// candidate generator rules out beforehand.
func (k Key) Extend(t corpus.TermID) Key {
	if !k.insert(t) {
		panic("core: Extend with duplicate term")
	}
	return k
}

// Drop returns the key without its i-th term (a size-(n-1) sub-key).
func (k Key) Drop(i int) Key {
	copy(k.t[i:], k.t[i+1:k.n])
	k.n--
	k.t[k.n] = noTerm
	return k
}

// Subkeys invokes fn for every proper sub-key of size n-1. For n == 1 it
// does nothing.
func (k Key) Subkeys(fn func(Key)) {
	if k.n <= 1 {
		return
	}
	for i := 0; i < int(k.n); i++ {
		fn(k.Drop(i))
	}
}

// IsSubsetOf reports whether every term of k appears in other.
func (k Key) IsSubsetOf(other Key) bool {
	if k.n > other.n {
		return false
	}
	j := 0
	for i := 0; i < int(k.n); i++ {
		for j < int(other.n) && other.t[j] < k.t[i] {
			j++
		}
		if j >= int(other.n) || other.t[j] != k.t[i] {
			return false
		}
	}
	return true
}

// keySeparator joins term strings in the canonical wire form. The unit
// separator cannot appear in tokenizer output.
const keySeparator = "\x1f"

// CanonicalString renders the key in its DHT wire form using the
// collection vocabulary: term strings in ascending TermID order joined by
// the unit separator.
func (k Key) CanonicalString(vocab []string) string {
	switch k.n {
	case 0:
		return ""
	case 1:
		return vocab[k.t[0]]
	}
	parts := make([]string, k.n)
	for i := 0; i < int(k.n); i++ {
		parts[i] = vocab[k.t[i]]
	}
	return strings.Join(parts, keySeparator)
}

// DisplayString renders the key human-readably ("term1+term2").
func (k Key) DisplayString(vocab []string) string {
	parts := make([]string, k.n)
	for i := 0; i < int(k.n); i++ {
		parts[i] = vocab[k.t[i]]
	}
	return strings.Join(parts, "+")
}
