package experiments

import (
	"testing"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
)

// These tests pin singleTermConfig as the paper's distributed
// single-term index: full posting lists, one per term, on the peer
// responsible for the term.

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

func buildSTEngine(t testing.TB, col *corpus.Collection, peers int) (*core.Engine, []overlay.Member) {
	t.Helper()
	eng, nodes, err := buildScaledEngine(col, peers, singleTermConfig(col))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return eng, nodes
}

func TestDistributedSTMatchesCentralized(t *testing.T) {
	col := genCollection(t, 120)
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	st, nodes := buildSTEngine(t, col, 4)

	qp := corpus.DefaultQueryParams(15)
	qp.MinHits = 2
	queries, err := corpus.GenerateQueries(col, qp, 20, cen.ConjunctiveHits)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		want := cen.Search(q, 20)
		got, err := st.Search(q, nodes[i%len(nodes)], 20)
		if err != nil {
			t.Fatal(err)
		}
		if got.FetchedPosts == 0 {
			t.Fatalf("query %d fetched no postings", i)
		}
		// The single-term index computes the same BM25 (modulo float32
		// rounding of the shipped partials): top-20 overlap must be
		// near-total.
		if ov := rank.Overlap(want, got.Results, 20); ov < 95 {
			t.Fatalf("query %d: ST overlap with centralized = %.0f%%, want >= 95%%", i, ov)
		}
	}
}

func TestDistributedSTTrafficGrowsWithCollection(t *testing.T) {
	// Figure 6's ST behaviour: per-query traffic grows with the
	// collection because posting lists are unbounded.
	fetchedAt := func(docs int) uint64 {
		col := genCollection(t, docs)
		cen := baseline.NewCentralized(col, rank.DefaultBM25())
		st, nodes := buildSTEngine(t, col, 4)
		qp := corpus.DefaultQueryParams(10)
		qp.MinHits = 1
		queries, err := corpus.GenerateQueries(col, qp, 20, cen.ConjunctiveHits)
		if err != nil {
			t.Fatal(err)
		}
		total := uint64(0)
		for i, q := range queries {
			res, err := st.Search(q, nodes[i%len(nodes)], 20)
			if err != nil {
				t.Fatal(err)
			}
			total += res.FetchedPosts
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
	st, _ := buildSTEngine(t, col, 4)
	inserted := st.Traffic().Snapshot().InsertedTotal
	stats := st.Stats()
	if inserted != uint64(stats.StoredTotal) {
		t.Fatalf("inserted %d != stored %d", inserted, stats.StoredTotal)
	}
	total := 0
	for _, n := range stats.PerNode {
		total += n
	}
	if total != stats.StoredTotal {
		t.Fatalf("per-node sum %d != stored %d", total, stats.StoredTotal)
	}
}

func TestDistributedSTIndexSizeMatchesCentralized(t *testing.T) {
	col := genCollection(t, 100)
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	st, _ := buildSTEngine(t, col, 4)
	if got, want := st.Stats().StoredTotal, cen.IndexPostings(); got != want {
		t.Fatalf("distributed ST stores %d postings, centralized %d", got, want)
	}
}
