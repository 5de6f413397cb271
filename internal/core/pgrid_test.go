package core

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/pgrid"
	"repro/internal/transport"
)

// buildPGridEngine assembles the HDK engine over the P-Grid trie — the
// substrate the paper's prototype actually used.
func buildPGridEngine(t *testing.T, col *corpus.Collection, peers int, cfg Config) *Engine {
	t.Helper()
	net := pgrid.NewNetwork(transport.NewInProc())
	for i := 0; i < peers; i++ {
		if _, err := net.AddPeer(fmt.Sprintf("pg-%02d", i)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	members := net.Members()
	for i, part := range col.SplitRoundRobin(peers) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

func TestEngineOverPGridMatchesChord(t *testing.T) {
	// The paper's model needs only the DHT abstraction; the engine must
	// therefore produce the identical global index on either substrate.
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)

	chord := buildEngine(t, col, 4, cfg)
	if err := chord.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	pg := buildPGridEngine(t, col, 4, cfg)
	if err := pg.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	assertEnginesEqual(t, pg, chord, cfg)

	// Queries answer identically through trie routing.
	chordNode := chord.net.Members()[0]
	pgNode := pg.net.Members()[0]
	for i := 0; i < 15; i++ {
		q := corpus.Query{Terms: col.Docs[i].Terms[:2]}
		a, err := chord.Search(q, chordNode, 20)
		if err != nil {
			t.Fatal(err)
		}
		b, err := pg.Search(q, pgNode, 20)
		if err != nil {
			t.Fatal(err)
		}
		if len(a.Results) != len(b.Results) {
			t.Fatalf("query %d: %d vs %d results", i, len(a.Results), len(b.Results))
		}
		for j := range a.Results {
			if a.Results[j].Doc != b.Results[j].Doc {
				t.Fatalf("query %d rank %d: doc %d (chord) vs %d (pgrid)",
					i, j, a.Results[j].Doc, b.Results[j].Doc)
			}
		}
		if a.FetchedPosts != b.FetchedPosts {
			t.Fatalf("query %d: fetched %d (chord) vs %d (pgrid) postings",
				i, a.FetchedPosts, b.FetchedPosts)
		}
	}
}

func TestEngineOverPGridAgainstReference(t *testing.T) {
	// The brute-force oracle must hold on the trie substrate too.
	col := testCollection(t, 50)
	cfg := testConfig(col, 6)
	eng := buildPGridEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ref := referenceIndex(col, cfg)
	got := collectIndexKeys(t, eng)
	for s := 1; s <= cfg.SMax; s++ {
		if len(got[s]) != len(ref[s]) {
			t.Fatalf("size %d: %d keys on pgrid, reference %d", s, len(got[s]), len(ref[s]))
		}
	}
}

func TestRemoveNodeOnPGrid(t *testing.T) {
	// Graceful leave with index handoff works on the trie fabric through
	// the Churn interface.
	col := testCollection(t, 40)
	cfg := testConfig(col, 5)
	eng := buildPGridEngine(t, col, 5, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	total := eng.Stats().StoredTotal
	victim := eng.net.Members()[2]
	if err := eng.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if got := eng.Stats().StoredTotal; got != total {
		t.Fatalf("postings lost in pgrid handoff: %d -> %d", total, got)
	}
	node := eng.net.Members()[0]
	q := corpus.Query{Terms: col.Docs[1].Terms[:2]}
	if _, err := eng.Search(q, node, 10); err != nil {
		t.Fatal(err)
	}
}
