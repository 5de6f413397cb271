package core

import (
	"fmt"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/transport"
)

// buildPrefixEngine indexes only the first `prefix` documents of col,
// splitting them across peers the same way the full build would.
func buildPrefixEngine(t *testing.T, col *corpus.Collection, prefix, peers int, cfg Config) (*Engine, []*corpus.Collection) {
	t.Helper()
	net := overlay.NewNetwork(transport.NewInProc())
	nodes := make([]*overlay.Node, peers)
	for i := range nodes {
		n, err := net.AddNode(fmt.Sprintf("peer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	// Very-frequent-term knowledge is computed over the FULL collection
	// for both engines so the comparison isolates the update protocol.
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	fullParts := col.SplitRoundRobin(peers)
	prefixParts := col.Slice(0, prefix).SplitRoundRobin(peers)
	for i := range prefixParts {
		if _, err := eng.AddPeer(nodes[i], prefixParts[i]); err != nil {
			t.Fatal(err)
		}
	}
	return eng, fullParts
}

// stageRest stages on every peer of an engine built by buildPrefixEngine
// the rest of its round-robin share of col: the documents past the first
// prefix.
func stageRest(t *testing.T, eng *Engine, col *corpus.Collection, prefix int) {
	t.Helper()
	fullParts := col.SplitRoundRobin(len(eng.peers))
	prefixParts := col.Slice(0, prefix).SplitRoundRobin(len(eng.peers))
	for i, p := range eng.peers {
		newDocs := &corpus.Collection{
			Vocab: col.Vocab,
			Docs:  fullParts[i].Docs[len(prefixParts[i].Docs):],
		}
		if err := p.AddDocuments(newDocs); err != nil {
			t.Fatal(err)
		}
	}
}

// assertEnginesEqual compares the complete global index state of two
// engines: key populations, classifications, global dfs and posting
// lists.
func assertEnginesEqual(t *testing.T, got, want *Engine, cfg Config) {
	t.Helper()
	gotKeys := collectIndexKeys(t, got)
	wantKeys := collectIndexKeys(t, want)
	for s := 1; s <= cfg.SMax; s++ {
		if len(gotKeys[s]) != len(wantKeys[s]) {
			t.Fatalf("size %d: %d keys incremental vs %d from scratch", s, len(gotKeys[s]), len(wantKeys[s]))
		}
		for k, wantStatus := range wantKeys[s] {
			gotStatus, ok := gotKeys[s][k]
			if !ok {
				t.Fatalf("size %d: key %v missing from incremental index", s, k.Terms())
			}
			if gotStatus != wantStatus {
				t.Fatalf("size %d key %v: status %v incremental vs %v scratch", s, k.Terms(), gotStatus, wantStatus)
			}
			gs, gdf, glist := got.KeyInfo(k)
			ws, wdf, wlist := want.KeyInfo(k)
			if gs != ws || gdf != wdf {
				t.Fatalf("key %v: (%v, df=%d) incremental vs (%v, df=%d) scratch", k.Terms(), gs, gdf, ws, wdf)
			}
			if len(glist) != len(wlist) {
				t.Fatalf("key %v: list length %d incremental vs %d scratch", k.Terms(), len(glist), len(wlist))
			}
			for i := range glist {
				if glist[i].Doc != wlist[i].Doc {
					t.Fatalf("key %v posting %d: doc %d vs %d", k.Terms(), i, glist[i].Doc, wlist[i].Doc)
				}
				if d := glist[i].Score - wlist[i].Score; d > 1e-4 || d < -1e-4 {
					t.Fatalf("key %v posting %d: score %g vs %g", k.Terms(), i, glist[i].Score, wlist[i].Score)
				}
			}
		}
	}
}

func TestUpdateIndexMatchesFromScratch(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	prefix := 40
	peers := 4

	// From-scratch reference over the full collection.
	scratch := buildEngine(t, col, peers, cfg)
	if err := scratch.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	// Incremental: build the prefix, then stage the remaining documents
	// per peer and build again.
	inc, _ := buildPrefixEngine(t, col, prefix, peers, cfg)
	if err := inc.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	stageRest(t, inc, col, prefix)
	if err := inc.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	assertEnginesEqual(t, inc, scratch, cfg)
}

func TestUpdateReclassifiesHDKs(t *testing.T) {
	// The maintenance rule under test: an HDK pushed over DFmax by new
	// documents must flip to NDK, truncate, and trigger expansion.
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	peers := 4
	inc, _ := buildPrefixEngine(t, col, 40, peers, cfg)
	if err := inc.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before := collectIndexKeys(t, inc)
	stageRest(t, inc, col, 40)
	if err := inc.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	after := collectIndexKeys(t, inc)

	flipped := 0
	for s := 1; s <= cfg.SMax; s++ {
		for k, st := range before[s] {
			if st == StatusHDK && after[s][k] == StatusNDK {
				flipped++
				// Truncation must hold for the flipped key.
				_, df, list := inc.KeyInfo(k)
				if df <= cfg.DFMax {
					t.Fatalf("flipped key %v has df %d <= DFmax", k.Terms(), df)
				}
				if len(list) > cfg.DFMax {
					t.Fatalf("flipped key %v holds %d > DFmax postings", k.Terms(), len(list))
				}
			}
			if st == StatusNDK && after[s][k] == StatusHDK {
				t.Fatalf("key %v went NDK -> HDK; df can only grow", k.Terms())
			}
		}
	}
	if flipped == 0 {
		t.Fatal("no HDK->NDK reclassification occurred — grow the update batch")
	}
}

// TestBuildIndexTwiceIsNoop builds, then builds again with nothing
// staged: the second pass must insert nothing and leave every store
// byte-identical. A pass that ignored the peers' watermarks would
// re-insert every document, doubling document frequencies and turning
// HDKs into NDKs without any error.
func TestBuildIndexTwiceIsNoop(t *testing.T) {
	col := testCollection(t, 120)
	cfg := testConfig(col, 12)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	digest := indexDigest(t, eng)
	before := eng.Traffic().Snapshot()
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	after := eng.Traffic().Snapshot()
	if n := after.InsertedTotal - before.InsertedTotal; n != 0 {
		t.Fatalf("second BuildIndex inserted %d postings", n)
	}
	if got := indexDigest(t, eng); got != digest {
		t.Fatalf("second BuildIndex changed the index digest: %s, was %s", got, digest)
	}
}

// TestUpdateIdempotentWithoutNewDocs runs one more BuildIndex after an
// incremental update: with nothing staged since, it changes nothing.
func TestUpdateIdempotentWithoutNewDocs(t *testing.T) {
	col := testCollection(t, 40)
	cfg := testConfig(col, 5)
	eng, _ := buildPrefixEngine(t, col, 30, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	stageRest(t, eng, col, 30)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	statsBefore := eng.Stats()
	trafficBefore := eng.Traffic().Snapshot().InsertedTotal
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	statsAfter := eng.Stats()
	if statsBefore.StoredTotal != statsAfter.StoredTotal || statsBefore.KeysTotal != statsAfter.KeysTotal {
		t.Fatalf("no-op update changed the index: %+v vs %+v", statsBefore, statsAfter)
	}
	if got := eng.Traffic().Snapshot().InsertedTotal; got != trafficBefore {
		t.Fatalf("no-op update inserted %d postings", got-trafficBefore)
	}
}

func TestAddDocumentsValidatesIDs(t *testing.T) {
	col := testCollection(t, 20)
	cfg := testConfig(col, 5)
	eng := buildEngine(t, col, 2, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	p := eng.peers[0]
	// Reusing an already-held id must be rejected.
	dup := &corpus.Collection{Vocab: col.Vocab, Docs: []corpus.Document{{ID: 0, Terms: []corpus.TermID{1}}}}
	if err := p.AddDocuments(dup); err == nil {
		t.Fatal("duplicate doc id accepted")
	}
	// Non-ascending batch must be rejected.
	bad := &corpus.Collection{Vocab: col.Vocab, Docs: []corpus.Document{
		{ID: 1000, Terms: []corpus.TermID{1}},
		{ID: 999, Terms: []corpus.TermID{2}},
	}}
	if err := p.AddDocuments(bad); err == nil {
		t.Fatal("non-ascending batch accepted")
	}
}

func TestMultipleIncrementalUpdates(t *testing.T) {
	// Three successive updates must equal one from-scratch build.
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	peers := 4
	scratch := buildEngine(t, col, peers, cfg)
	if err := scratch.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	inc, fullParts := buildPrefixEngine(t, col, 24, peers, cfg)
	if err := inc.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	prev := make([]int, peers)
	for i := range prev {
		prev[i] = len(col.Slice(0, 24).SplitRoundRobin(peers)[i].Docs)
	}
	for _, upTo := range []int{40, 52, 60} {
		for i, p := range inc.peers {
			target := len(col.Slice(0, upTo).SplitRoundRobin(peers)[i].Docs)
			newDocs := &corpus.Collection{Vocab: col.Vocab, Docs: fullParts[i].Docs[prev[i]:target]}
			if err := p.AddDocuments(newDocs); err != nil {
				t.Fatal(err)
			}
			prev[i] = target
		}
		if err := inc.BuildIndex(); err != nil {
			t.Fatal(err)
		}
	}
	assertEnginesEqual(t, inc, scratch, cfg)
}

// TestPeerRoundSeamMatchesFromScratch drives the build seam a cluster
// daemon runs under an external coordinator (IndexPeerRound per peer,
// ClassifyRound, FinishBuild): a build of a prefix, then AddDocuments and
// the same seam again, must equal a from-scratch build of the whole
// collection.
func TestPeerRoundSeamMatchesFromScratch(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	peers := 4
	scratch := buildEngine(t, col, peers, cfg)
	if err := scratch.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	inc, _ := buildPrefixEngine(t, col, 40, peers, cfg)
	seam := func() {
		t.Helper()
		for s := 1; s <= cfg.SMax; s++ {
			for _, p := range inc.peers {
				if _, err := inc.IndexPeerRound(p, s); err != nil {
					t.Fatal(err)
				}
			}
			if err := inc.ClassifyRound(s); err != nil {
				t.Fatal(err)
			}
		}
		inc.FinishBuild()
	}
	seam()
	stageRest(t, inc, col, 40)
	seam()
	assertEnginesEqual(t, inc, scratch, cfg)
	if got, want := indexDigest(t, inc), indexDigest(t, scratch); got != want {
		t.Fatalf("seam-updated index digest %s, from scratch %s", got, want)
	}
}
