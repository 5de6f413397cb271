package baseline

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/rank"
)

func genCollection(t testing.TB, docs int) *corpus.Collection {
	t.Helper()
	p := corpus.DefaultGenParams(docs)
	p.AvgDocLen = 60
	c, err := corpus.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestCentralizedIndexConsistency(t *testing.T) {
	c := genCollection(t, 200)
	e := NewCentralized(c, rank.DefaultBM25())
	// Sum of posting-list lengths equals sum over docs of distinct terms.
	wantPostings := 0
	for i := range c.Docs {
		seen := map[corpus.TermID]bool{}
		for _, tm := range c.Docs[i].Terms {
			seen[tm] = true
		}
		wantPostings += len(seen)
	}
	if got := e.IndexPostings(); got != wantPostings {
		t.Fatalf("IndexPostings = %d, want %d", got, wantPostings)
	}
	// df per the engine equals df per the collection scan.
	dfs := c.DocumentFrequencies()
	for id, df := range dfs {
		if got := e.DF(corpus.TermID(id)); got != df {
			t.Fatalf("DF(%d) = %d, want %d", id, got, df)
		}
	}
	if e.Stats().NumDocs != c.M() {
		t.Fatalf("NumDocs = %d, want %d", e.Stats().NumDocs, c.M())
	}
}

func TestCentralizedSearchRanksContainingDocs(t *testing.T) {
	c := genCollection(t, 150)
	e := NewCentralized(c, rank.DefaultBM25())
	// Use terms of an existing document: it must be retrievable.
	doc := &c.Docs[7]
	q := corpus.Query{Terms: doc.Terms[:2]}
	res := e.Search(q, 20)
	if len(res) == 0 {
		t.Fatal("no results for terms drawn from an indexed doc")
	}
	found := false
	for _, r := range res {
		if r.Doc == doc.ID {
			found = true
		}
	}
	if !found {
		// Not guaranteed in general, but with 150 docs and top-20 a doc
		// containing both query terms is expected to rank.
		t.Logf("warning: source doc not in top-20 (can legitimately happen)")
	}
	// Scores must be non-increasing.
	for i := 1; i < len(res); i++ {
		if res[i].Score > res[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestCentralizedConjunctiveHits(t *testing.T) {
	c := genCollection(t, 100)
	e := NewCentralized(c, rank.DefaultBM25())
	doc := &c.Docs[3]
	q := corpus.Query{Terms: []corpus.TermID{doc.Terms[0], doc.Terms[1]}}
	got := e.ConjunctiveHits(q)
	// Brute force.
	want := 0
	for i := range c.Docs {
		has0, has1 := false, false
		for _, tm := range c.Docs[i].Terms {
			if tm == q.Terms[0] {
				has0 = true
			}
			if tm == q.Terms[1] {
				has1 = true
			}
		}
		if has0 && has1 {
			want++
		}
	}
	if got != want {
		t.Fatalf("ConjunctiveHits = %d, want %d", got, want)
	}
	if e.ConjunctiveHits(corpus.Query{}) != 0 {
		t.Error("empty query should have 0 hits")
	}
}
