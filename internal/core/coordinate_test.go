package core

import (
	"math/bits"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// refLevelCandidates is the string-keyed lattice enumeration the
// traversal pruned with before it keyed statuses by term-subset mask:
// every size-`size` subset of the terms in lexicographic order of term
// positions, kept if each immediate sub-key's canonical string was
// probed as NDK.
func refLevelCandidates(terms []string, size int, status map[string]KeyStatus) []string {
	var out []string
	idxs := make([]int, 0, size)
	var rec func(start int)
	rec = func(start int) {
		if len(idxs) == size {
			if size > 1 && !refAllSubkeysND(terms, idxs, status) {
				return
			}
			out = append(out, refCanonicalKey(terms, idxs, -1))
			return
		}
		for i := start; i < len(terms); i++ {
			idxs = append(idxs, i)
			rec(i + 1)
			idxs = idxs[:len(idxs)-1]
		}
	}
	rec(0)
	return out
}

// refCanonicalKey joins the selected terms, skipping position drop (-1
// keeps every index).
func refCanonicalKey(terms []string, idxs []int, drop int) string {
	kept := make([]string, 0, len(idxs))
	for pos, i := range idxs {
		if pos != drop {
			kept = append(kept, terms[i])
		}
	}
	return strings.Join(kept, keySeparator)
}

func refAllSubkeysND(terms []string, idxs []int, status map[string]KeyStatus) bool {
	for drop := range idxs {
		if status[refCanonicalKey(terms, idxs, drop)] != StatusNDK {
			return false
		}
	}
	return true
}

// TestLevelCandidatesMatchStringReference pins the mask-keyed pruning to
// the string-keyed reference: over random term counts and random level
// statuses, both yield the same canonical keys in the same order, level
// after level, and every candidate's mask names exactly its terms.
func TestLevelCandidatesMatchStringReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	deepest := 0
	for trial := 0; trial < 1000; trial++ {
		n := 1 + rng.Intn(12)
		pNDK := []float64{0.5, 0.8, 0.95}[trial%3] // deeper lattices as NDK grows likelier
		terms := randomTerms(rng, n)
		byMask := map[uint64]KeyStatus{}
		byString := map[string]KeyStatus{}
		for size := 1; size <= n; size++ {
			got := levelCandidates(terms, size, byMask)
			want := refLevelCandidates(terms, size, byString)
			keys := make([]string, len(got))
			for i, o := range got {
				keys[i] = o.canonical
				if bits.OnesCount64(o.mask) != size || o.canonical != refCanonicalKey(terms, maskIdxs(o.mask), -1) {
					t.Fatalf("trial %d size %d: mask %b does not name key %q", trial, size, o.mask, o.canonical)
				}
			}
			if len(want) == 0 && len(keys) == 0 {
				break
			}
			if !reflect.DeepEqual(keys, want) {
				t.Fatalf("trial %d (%d terms) size %d:\nmask:   %q\nstring: %q", trial, n, size, keys, want)
			}
			if len(want) > 0 {
				deepest = max(deepest, size)
			}
			for _, o := range got {
				st := KeyStatus(rng.Intn(2)) // absent or HDK
				if rng.Float64() < pNDK {
					st = StatusNDK
				}
				byMask[o.mask] = st
				byString[o.canonical] = st
			}
		}
	}
	if deepest < 6 {
		t.Fatalf("no trial reached a level past %d", deepest)
	}
}

// randomTerms returns n distinct short terms.
func randomTerms(rng *rand.Rand, n int) []string {
	seen := map[string]bool{}
	out := make([]string, 0, n)
	for len(out) < n {
		b := make([]byte, 1+rng.Intn(5))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		if s := string(b); !seen[s] {
			seen[s] = true
			out = append(out, s)
		}
	}
	return out
}

// maskIdxs lists the positions mask selects, ascending.
func maskIdxs(mask uint64) []int {
	var idxs []int
	for m := mask; m != 0; m &= m - 1 {
		idxs = append(idxs, bits.TrailingZeros64(m))
	}
	return idxs
}
