package baseline

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
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

func buildSTEngine(t testing.TB, col *corpus.Collection, peers int) *DistributedST {
	t.Helper()
	net := overlay.NewNetwork(transport.NewInProc())
	for i := 0; i < peers; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	global := GlobalStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()}
	e := NewDistributedST(net, col.Vocab, global, rank.DefaultBM25())
	for _, part := range col.SplitRoundRobin(peers) {
		if _, err := e.IndexPeer(part); err != nil {
			t.Fatal(err)
		}
	}
	return e
}

func TestDistributedSTMatchesCentralized(t *testing.T) {
	col := genCollection(t, 120)
	cen := NewCentralized(col, rank.DefaultBM25())
	st := buildSTEngine(t, col, 4)

	qp := corpus.DefaultQueryParams(15)
	qp.MinHits = 2
	queries, err := corpus.GenerateQueries(col, qp, 20, func(q corpus.Query) int {
		return cen.ConjunctiveHits(q)
	})
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := cen.Search(q, 20)
		got, fetched, err := st.Search(q, 20)
		if err != nil {
			t.Fatal(err)
		}
		if fetched == 0 {
			t.Fatalf("query %d fetched no postings", i)
		}
		// Distributed ST computes the same BM25 (modulo float32 rounding
		// of the shipped partials): top-20 overlap must be near-total.
		if ov := rank.Overlap(want, got, 20); ov < 95 {
			t.Fatalf("query %d: ST overlap with centralized = %.0f%%, want >= 95%%", i, ov)
		}
	}
}

func TestDistributedSTTrafficGrowsWithCollection(t *testing.T) {
	// Figure 6's ST behaviour: per-query traffic grows with the
	// collection because posting lists are unbounded.
	fetchedAt := func(docs int) uint64 {
		col := genCollection(t, docs)
		cen := NewCentralized(col, rank.DefaultBM25())
		st := buildSTEngine(t, col, 4)
		qp := corpus.DefaultQueryParams(10)
		qp.MinHits = 1
		queries, err := corpus.GenerateQueries(col, qp, 20, cen.ConjunctiveHits)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(0)
		for _, q := range queries {
			_, fetched, err := st.Search(q, 20)
			if err != nil {
				t.Fatal(err)
			}
			total += fetched
		}
		return total
	}
	small := fetchedAt(80)
	large := fetchedAt(320)
	if large <= small {
		t.Fatalf("ST traffic did not grow: %d (80 docs) vs %d (320 docs)", small, large)
	}
}

func TestDistributedSTStoredEqualsInserted(t *testing.T) {
	// Every inserted posting is stored exactly once (full lists, no
	// truncation) when each (term, doc) pair is unique across peers.
	col := genCollection(t, 100)
	st := buildSTEngine(t, col, 4)
	snap := st.Traffic.Snapshot()
	if snap.InsertedPostings != snap.StoredPostings {
		t.Fatalf("inserted %d != stored %d", snap.InsertedPostings, snap.StoredPostings)
	}
	perNode := st.StoredPostingsPerNode()
	total := 0
	for _, n := range perNode {
		total += n
	}
	if uint64(total) != snap.StoredPostings {
		t.Fatalf("per-node sum %d != stored %d", total, snap.StoredPostings)
	}
}

func TestDistributedSTIndexSizeMatchesCentralized(t *testing.T) {
	col := genCollection(t, 100)
	cen := NewCentralized(col, rank.DefaultBM25())
	st := buildSTEngine(t, col, 4)
	if got, want := st.Traffic.Snapshot().StoredPostings, uint64(cen.IndexPostings()); got != want {
		t.Fatalf("distributed ST stores %d postings, centralized %d", got, want)
	}
}
