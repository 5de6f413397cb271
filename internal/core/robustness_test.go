package core

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/transport"
)

// buildFlakyEngine assembles the engine over a transport that drops the
// given fraction of messages.
func buildFlakyEngine(t *testing.T, col *corpus.Collection, peers int, cfg Config, dropRate float64) (*Engine, *transport.Flaky) {
	t.Helper()
	inner := transport.NewInProc()
	flaky, err := transport.NewFlaky(inner, dropRate, 99)
	if err != nil {
		t.Fatal(err)
	}
	net := overlay.NewNetwork(flaky)
	nodes := make([]*overlay.Node, peers)
	for i := range nodes {
		n, err := net.AddNode(fmt.Sprintf("peer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range col.SplitRoundRobin(peers) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			t.Fatal(err)
		}
	}
	return eng, flaky
}

func TestBuildIndexSurvivesMessageLoss(t *testing.T) {
	// 10% of all messages dropped (inserts, notifications, routing);
	// overlay-level retries must make the build converge to exactly the
	// state a reliable network produces.
	col := testCollection(t, 50)
	cfg := testConfig(col, 5)

	reliable := buildEngine(t, col, 4, cfg)
	if err := reliable.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	want := reliable.Stats()

	flakyEng, flaky := buildFlakyEngine(t, col, 4, cfg, 0.10)
	if err := flakyEng.BuildIndex(); err != nil {
		t.Fatalf("build failed under 10%% message loss: %v", err)
	}
	got := flakyEng.Stats()
	if flaky.Dropped() == 0 {
		t.Fatal("failure injection inactive — test proves nothing")
	}
	if got.StoredTotal != want.StoredTotal || got.KeysTotal != want.KeysTotal {
		t.Fatalf("flaky build diverged: stored %d vs %d, keys %d vs %d",
			got.StoredTotal, want.StoredTotal, got.KeysTotal, want.KeysTotal)
	}
	for s := 1; s <= cfg.SMax; s++ {
		if got.KeysBySize[s] != want.KeysBySize[s] {
			t.Fatalf("size %d: %d keys vs %d on reliable network",
				s, got.KeysBySize[s], want.KeysBySize[s])
		}
	}
}

func TestSearchSurvivesMessageLoss(t *testing.T) {
	col := testCollection(t, 50)
	cfg := testConfig(col, 5)
	eng, flaky := buildFlakyEngine(t, col, 4, cfg, 0.10)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before := flaky.Dropped()
	nodes := eng.net.Members()
	for i := 0; i < 20; i++ {
		q := corpus.Query{Terms: col.Docs[i].Terms[:2]}
		if _, err := eng.Search(q, nodes[i%len(nodes)], 10); err != nil {
			t.Fatalf("query %d failed under message loss: %v", i, err)
		}
	}
	if flaky.Dropped() == before {
		t.Log("note: no drops during retrieval window (low volume) — build-phase drops still exercised the path")
	}
}
