// Package baseline implements the centralized single-term BM25 engine of
// the paper's evaluation: the reference for the top-20 overlap of Figure 7,
// standing in for the authors' Terrier setup. The distributed single-term
// comparator (the ST series of Figures 3, 4, 6 and 7) is not here: it is
// the HDK engine at smax 1 with every term discriminative, configured by
// internal/experiments.
package baseline

import (
	"fmt"
	"sort"

	"repro/internal/corpus"
	"repro/internal/postings"
	"repro/internal/rank"
)

// Centralized is a classical single-machine inverted index with BM25
// ranking.
type Centralized struct {
	params  rank.BM25Params
	stats   rank.CollectionStats
	docLens map[corpus.DocID]int
	// index[t] is the posting list of term t with Score = raw tf.
	index map[corpus.TermID]postings.List
}

// NewCentralized indexes the whole collection.
func NewCentralized(c *corpus.Collection, params rank.BM25Params) *Centralized {
	e := &Centralized{
		params:  params,
		docLens: make(map[corpus.DocID]int, len(c.Docs)),
		index:   make(map[corpus.TermID]postings.List),
	}
	totalLen := 0
	tf := make(map[corpus.TermID]int)
	for i := range c.Docs {
		d := &c.Docs[i]
		e.docLens[d.ID] = len(d.Terms)
		totalLen += len(d.Terms)
		clear(tf)
		for _, t := range d.Terms {
			tf[t]++
		}
		for t, f := range tf {
			e.index[t] = append(e.index[t], postings.Posting{Doc: d.ID, Score: float32(f)})
		}
	}
	for t := range e.index {
		l := e.index[t]
		sort.Slice(l, func(i, j int) bool { return l[i].Doc < l[j].Doc })
	}
	e.stats = rank.CollectionStats{NumDocs: len(c.Docs)}
	if len(c.Docs) > 0 {
		e.stats.AvgDocLen = float64(totalLen) / float64(len(c.Docs))
	}
	return e
}

// Stats returns the collection statistics the engine ranks with.
func (e *Centralized) Stats() rank.CollectionStats { return e.stats }

// DF returns the document frequency of a term.
func (e *Centralized) DF(t corpus.TermID) int { return len(e.index[t]) }

// PostingList returns the term's posting list (Score = tf). The returned
// slice is owned by the engine and must not be mutated.
func (e *Centralized) PostingList(t corpus.TermID) postings.List { return e.index[t] }

// Search ranks the collection for the query with BM25 and returns the
// top-k results (disjunctive semantics, the standard web-search model).
func (e *Centralized) Search(q corpus.Query, k int) []rank.Result {
	scores := make(map[corpus.DocID]float64)
	for _, t := range q.Terms {
		pl := e.index[t]
		df := len(pl)
		for _, p := range pl {
			scores[p.Doc] += e.params.Score(e.stats, int(p.Score), df, e.docLens[p.Doc])
		}
	}
	res := make([]rank.Result, 0, len(scores))
	for doc, s := range scores {
		res = append(res, rank.Result{Doc: doc, Score: s})
	}
	rank.SortResults(res)
	if k < len(res) {
		res = res[:k]
	}
	return res
}

// ConjunctiveHits counts documents containing every query term — the
// "hits" notion behind the paper's >20-hits query filter.
func (e *Centralized) ConjunctiveHits(q corpus.Query) int {
	if len(q.Terms) == 0 {
		return 0
	}
	acc := e.index[q.Terms[0]]
	for _, t := range q.Terms[1:] {
		acc = postings.Intersect(acc, e.index[t])
		if len(acc) == 0 {
			return 0
		}
	}
	return len(acc)
}

// IndexPostings returns the total number of postings in the index — the
// single-term index size of Figures 3 and 4 (a centralized and a
// distributed ST index hold the same postings overall).
func (e *Centralized) IndexPostings() int {
	total := 0
	for _, l := range e.index {
		total += len(l)
	}
	return total
}

// String summarizes the engine for logs.
func (e *Centralized) String() string {
	return fmt.Sprintf("centralized{docs=%d terms=%d postings=%d}",
		e.stats.NumDocs, len(e.index), e.IndexPostings())
}
