// Package rank implements relevance computation and evaluation metrics:
// the Okapi BM25 weighting scheme used by the centralized baseline (the
// paper compares against "a centralized engine with BM25 relevance
// computation scheme", their Terrier setup), score-ordered result lists,
// and the top-k overlap metric of Figure 7.
package rank

import (
	"math"
	"sort"

	"repro/internal/corpus"
	"repro/internal/postings"
)

// BM25Params are the Okapi BM25 free parameters.
type BM25Params struct {
	K1 float64
	B  float64
}

// DefaultBM25 is the standard parameterization (k1=1.2, b=0.75).
func DefaultBM25() BM25Params { return BM25Params{K1: 1.2, B: 0.75} }

// CollectionStats carries the global statistics BM25 needs.
type CollectionStats struct {
	NumDocs   int
	AvgDocLen float64
}

// IDF computes the BM25 inverse document frequency with the standard
// +0.5 smoothing, floored at a small positive value so very frequent terms
// never contribute negatively.
func (s CollectionStats) IDF(df int) float64 {
	if s.NumDocs == 0 {
		return 0
	}
	idf := math.Log(1 + (float64(s.NumDocs)-float64(df)+0.5)/(float64(df)+0.5))
	if idf < 1e-9 {
		return 1e-9
	}
	return idf
}

// Score computes the BM25 contribution of one term occurrence profile:
// term frequency tf within a document of length docLen, document frequency
// df in the collection.
func (p BM25Params) Score(s CollectionStats, tf, df, docLen int) float64 {
	if tf == 0 || df == 0 {
		return 0
	}
	norm := p.K1 * (1 - p.B + p.B*float64(docLen)/math.Max(s.AvgDocLen, 1))
	return s.IDF(df) * float64(tf) * (p.K1 + 1) / (float64(tf) + norm)
}

// Result is a scored document in a ranked answer.
type Result struct {
	Doc   corpus.DocID
	Score float64
}

// before reports whether a ranks ahead of b: descending score, then
// ascending doc id. Doc ids are unique within a ranking, so this is a
// strict total order and every top-k under it is unique.
func before(a, b Result) bool {
	if a.Score != b.Score {
		return a.Score > b.Score
	}
	return a.Doc < b.Doc
}

// TopKByScore converts a posting list into the k best results, ordered by
// descending score with doc-id tie-break (deterministic rankings make the
// Figure 7 overlap measurements reproducible). It is a bounded selection:
// one pass over the list against a k-slot heap whose root is the worst
// result kept, then an in-place heap sort of those k — O(n log k) and one
// allocation, where ranking a whole score accumulator to keep ten of it
// was O(n log n) and an n-sized one.
func TopKByScore(l postings.List, k int) []Result {
	if k > len(l) {
		k = len(l)
	}
	res := make([]Result, k)
	if k == 0 {
		return res
	}
	for i := range res {
		res[i] = Result{Doc: l[i].Doc, Score: float64(l[i].Score)}
	}
	for i := k/2 - 1; i >= 0; i-- {
		siftDown(res, i)
	}
	for _, p := range l[k:] {
		if r := (Result{Doc: p.Doc, Score: float64(p.Score)}); before(r, res[0]) {
			res[0] = r
			siftDown(res, 0)
		}
	}
	// Heap sort: the worst result left moves behind the rest, so the
	// slice ends up best first.
	for end := k - 1; end > 0; end-- {
		res[0], res[end] = res[end], res[0]
		siftDown(res[:end], 0)
	}
	return res
}

// siftDown restores the heap order below h[i]: every parent ranks behind
// both its children, which keeps the worst result at the root.
func siftDown(h []Result, i int) {
	for {
		c := 2*i + 1
		if c >= len(h) {
			return
		}
		if c+1 < len(h) && before(h[c], h[c+1]) {
			c++ // the worse child
		}
		if !before(h[i], h[c]) {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// SortResults orders results by descending score, ascending doc id.
func SortResults(res []Result) {
	sort.Slice(res, func(i, j int) bool { return before(res[i], res[j]) })
}

// Overlap computes the Figure 7 metric: the fraction (in percent) of the
// reference top-k that also appears in the candidate top-k. Both lists are
// truncated to k before comparison; the denominator is the reference size
// (so a short reference list is not penalized).
func Overlap(reference, candidate []Result, k int) float64 {
	if k < len(reference) {
		reference = reference[:k]
	}
	if k < len(candidate) {
		candidate = candidate[:k]
	}
	if len(reference) == 0 {
		return 0
	}
	in := make(map[corpus.DocID]struct{}, len(candidate))
	for _, r := range candidate {
		in[r.Doc] = struct{}{}
	}
	hits := 0
	for _, r := range reference {
		if _, ok := in[r.Doc]; ok {
			hits++
		}
	}
	return 100 * float64(hits) / float64(len(reference))
}
