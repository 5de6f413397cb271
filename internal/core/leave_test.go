package core

import (
	"testing"

	"repro/internal/corpus"
	"repro/internal/rank"
)

// searchAll runs a fixed query set and returns the ranked doc ids.
func searchAll(t *testing.T, eng *Engine, col *corpus.Collection, n int) [][]rank.Result {
	t.Helper()
	node := eng.net.Members()[0]
	out := make([][]rank.Result, n)
	for i := 0; i < n; i++ {
		q := corpus.Query{Terms: col.Docs[i].Terms[:2]}
		res, err := eng.Search(q, node, 20)
		if err != nil {
			t.Fatal(err)
		}
		out[i] = res.Results
	}
	return out
}

func assertSameResults(t *testing.T, a, b [][]rank.Result, context string) {
	t.Helper()
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("%s: query %d: %d vs %d results", context, i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j].Doc != b[i][j].Doc {
				t.Fatalf("%s: query %d rank %d: doc %d vs %d", context, i, j, a[i][j].Doc, b[i][j].Doc)
			}
		}
	}
}

func TestRemoveNodeHandsOffIndex(t *testing.T) {
	col := testCollection(t, 50)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 5, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	totalBefore := eng.Stats().StoredTotal
	before := searchAll(t, eng, col, 12)

	victim := eng.net.Members()[2]
	if err := eng.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if eng.net.Size() != 4 {
		t.Fatalf("network size %d after leave, want 4", eng.net.Size())
	}
	if got := eng.Stats().StoredTotal; got != totalBefore {
		t.Fatalf("postings lost in handoff: %d -> %d", totalBefore, got)
	}
	after := searchAll(t, eng, col, 12)
	assertSameResults(t, before, after, "leave")
}

func TestRemoveNodeTwiceFails(t *testing.T) {
	col := testCollection(t, 20)
	cfg := testConfig(col, 5)
	eng := buildEngine(t, col, 3, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	victim := eng.net.Members()[0]
	if err := eng.RemoveNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveNode(victim); err == nil {
		t.Fatal("double removal accepted")
	}
}

func TestOverlayRemoveUnknownNode(t *testing.T) {
	col := testCollection(t, 10)
	cfg := testConfig(col, 5)
	eng := buildEngine(t, col, 2, cfg)
	if eng.net.RemoveNode(0xdeadbeef) {
		t.Fatal("removed a node that was never added")
	}
}
