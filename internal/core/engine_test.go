package core

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/transport"
)

// statsFor builds collection stats for tests.
func statsFor(docs int, avgLen float64) rank.CollectionStats {
	return rank.CollectionStats{NumDocs: docs, AvgDocLen: avgLen}
}

// buildEngine assembles an overlay + HDK engine over the collection split
// across n peers.
func buildEngine(t testing.TB, col *corpus.Collection, peers int, cfg Config) *Engine {
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
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range col.SplitRoundRobin(peers) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			t.Fatal(err)
		}
	}
	return eng
}

// testCollection generates a small dense collection in which multi-term
// keys actually form at tiny DFmax values.
func testCollection(t testing.TB, docs int) *corpus.Collection {
	t.Helper()
	p := corpus.GenParams{
		NumDocs:    docs,
		VocabSize:  300,
		AvgDocLen:  40,
		Skew:       1.0,
		NumTopics:  6,
		TopicTerms: 30,
		TopicMix:   0.5,
		Seed:       3,
	}
	col, err := corpus.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func testConfig(col *corpus.Collection, dfmax int) Config {
	cfg := DefaultConfig(statsFor(col.M(), col.AvgDocLen()))
	cfg.DFMax = dfmax
	cfg.Window = 8
	cfg.Ff = 1 << 30 // no very-frequent cutoff unless a test wants it
	return cfg
}

// KeyInfo reads one key's global classification straight from the
// in-process stores, consulting the key's replica set in failover order.
func (e *Engine) KeyInfo(k Key) (KeyStatus, int, postings.List) {
	canonical := k.CanonicalString(e.vocab)
	for _, owner := range e.net.OwnersOf(canonical, e.replicas()) {
		srv, ok := e.stores[owner.ID()]
		if !ok {
			continue
		}
		if status, df, list := srv.store.fetch(canonical); status != StatusAbsent {
			return status, df, list
		}
	}
	return StatusAbsent, 0, nil
}

// allSubkeysNDStatus prunes the retrieval lattice on packed keys — the
// Key-typed twin of allSubsetsND in coordinate.go.
func (e *Engine) allSubkeysNDStatus(key Key, status map[Key]KeyStatus) bool {
	ok := true
	key.Subkeys(func(sub Key) {
		if status[sub] != StatusNDK {
			ok = false
		}
	})
	return ok
}

// --- reference oracle ----------------------------------------------------
//
// referenceIndex recomputes, by brute force over the global collection,
// the exact key population the distributed protocol must produce:
//   size 1: every term, classified by document frequency;
//   size s>1: every term set whose immediate sub-keys are all ND, whose
//   terms co-occur in a window, classified by window document frequency.

type refEntry struct {
	df   int
	docs map[corpus.DocID]bool
}

func referenceIndex(col *corpus.Collection, cfg Config) map[int]map[Key]*refEntry {
	levels := make(map[int]map[Key]*refEntry)
	// Size 1.
	lvl1 := make(map[Key]*refEntry)
	for i := range col.Docs {
		d := &col.Docs[i]
		for _, tm := range d.Terms {
			k := NewKey(tm)
			e := lvl1[k]
			if e == nil {
				e = &refEntry{docs: map[corpus.DocID]bool{}}
				lvl1[k] = e
			}
			e.docs[d.ID] = true
		}
	}
	for _, e := range lvl1 {
		e.df = len(e.docs)
	}
	levels[1] = lvl1
	// Larger sizes.
	for s := 2; s <= cfg.SMax; s++ {
		prev := levels[s-1]
		nd := func(k Key) bool {
			e, ok := prev[k]
			return ok && e.df > cfg.DFMax
		}
		lvl := make(map[Key]*refEntry)
		for i := range col.Docs {
			d := &col.Docs[i]
			w := cfg.Window
			for j := range d.Terms {
				lo := j - w + 1
				if lo < 0 {
					lo = 0
				}
				window := d.Terms[lo : j+1]
				c := d.Terms[j]
				// subsets of size s containing position j's term
				var rec func(start int, cur []corpus.TermID)
				rec = func(start int, cur []corpus.TermID) {
					if len(cur) == s-1 {
						terms := append(append([]corpus.TermID{}, cur...), c)
						if hasDup(terms) {
							return
						}
						k := NewKey(terms...)
						if k.Size() != s {
							return
						}
						ok := true
						k.Subkeys(func(sub Key) {
							if !nd(sub) {
								ok = false
							}
						})
						if !ok {
							return
						}
						e := lvl[k]
						if e == nil {
							e = &refEntry{docs: map[corpus.DocID]bool{}}
							lvl[k] = e
						}
						e.docs[d.ID] = true
						return
					}
					for x := start; x < len(window)-1; x++ {
						rec(x+1, append(cur, window[x]))
					}
				}
				rec(0, nil)
			}
		}
		for _, e := range lvl {
			e.df = len(e.docs)
		}
		levels[s] = lvl
	}
	return levels
}

func hasDup(ts []corpus.TermID) bool {
	for i := range ts {
		for j := i + 1; j < len(ts); j++ {
			if ts[i] == ts[j] {
				return true
			}
		}
	}
	return false
}

// collectIndexKeys pulls every classified key out of the engine's stores.
func collectIndexKeys(t *testing.T, eng *Engine) map[int]map[Key]KeyStatus {
	t.Helper()
	out := make(map[int]map[Key]KeyStatus)
	for _, srv := range eng.stores {
		store := srv.store
		store.mu.Lock()
		for canonical, e := range store.entries {
			k, err := eng.parseKey(canonical)
			if err != nil {
				store.mu.Unlock()
				t.Fatal(err)
			}
			if out[e.size] == nil {
				out[e.size] = make(map[Key]KeyStatus)
			}
			out[e.size][k] = e.status
		}
		store.mu.Unlock()
	}
	return out
}

func TestBuildIndexMatchesReference(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ref := referenceIndex(col, cfg)
	got := collectIndexKeys(t, eng)

	for s := 1; s <= cfg.SMax; s++ {
		refLvl, gotLvl := ref[s], got[s]
		if len(refLvl) != len(gotLvl) {
			t.Errorf("size %d: engine has %d keys, reference %d", s, len(gotLvl), len(refLvl))
		}
		for k, e := range refLvl {
			st, ok := gotLvl[k]
			if !ok {
				t.Errorf("size %d: key %v missing from engine index", s, k.Terms())
				continue
			}
			wantStatus := StatusHDK
			if e.df > cfg.DFMax {
				wantStatus = StatusNDK
			}
			if st != wantStatus {
				t.Errorf("size %d key %v: status %v, want %v (df=%d)", s, k.Terms(), st, wantStatus, e.df)
			}
			// df agreement.
			_, df, _ := eng.KeyInfo(k)
			if df != e.df {
				t.Errorf("size %d key %v: df %d, want %d", s, k.Terms(), df, e.df)
			}
		}
		for k := range gotLvl {
			if _, ok := refLvl[k]; !ok {
				t.Errorf("size %d: engine has spurious key %v", s, k.Terms())
			}
		}
	}
}

func TestHDKPostingListsExactAndBounded(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ref := referenceIndex(col, cfg)
	for s := 1; s <= cfg.SMax; s++ {
		for k, e := range ref[s] {
			status, df, list := eng.KeyInfo(k)
			switch status {
			case StatusHDK:
				// Full posting list: exactly the reference doc set.
				if len(list) != e.df || df != e.df {
					t.Fatalf("HDK %v: |list|=%d df=%d, want %d", k.Terms(), len(list), df, e.df)
				}
				for _, p := range list {
					if !e.docs[p.Doc] {
						t.Fatalf("HDK %v: posting for doc %d not in reference", k.Terms(), p.Doc)
					}
				}
			case StatusNDK:
				if len(list) > cfg.DFMax {
					t.Fatalf("NDK %v: truncated list has %d > DFmax=%d postings", k.Terms(), len(list), cfg.DFMax)
				}
				if df <= cfg.DFMax {
					t.Fatalf("NDK %v: df=%d <= DFmax", k.Terms(), df)
				}
				// Truncated postings still reference real matching docs.
				for _, p := range list {
					if !e.docs[p.Doc] {
						t.Fatalf("NDK %v: posting for doc %d not in reference", k.Terms(), p.Doc)
					}
				}
			default:
				t.Fatalf("key %v absent from index", k.Terms())
			}
		}
	}
}

func TestSubsumptionInvariant(t *testing.T) {
	// Any stored key of size s > 1 must have every immediate sub-key
	// stored and non-discriminative (intrinsic discriminativeness).
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	got := collectIndexKeys(t, eng)
	for s := 2; s <= cfg.SMax; s++ {
		for k := range got[s] {
			k.Subkeys(func(sub Key) {
				st, ok := got[s-1][sub]
				if !ok {
					t.Fatalf("stored key %v has unindexed sub-key %v", k.Terms(), sub.Terms())
				}
				if st != StatusNDK {
					t.Fatalf("stored key %v has discriminative sub-key %v", k.Terms(), sub.Terms())
				}
			})
		}
	}
}

func TestBuildDeterministic(t *testing.T) {
	col := testCollection(t, 40)
	cfg := testConfig(col, 5)
	s1 := func() IndexStats {
		eng := buildEngine(t, col, 4, cfg)
		if err := eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		return eng.Stats()
	}
	a, b := s1(), s1()
	if a.StoredTotal != b.StoredTotal || a.KeysTotal != b.KeysTotal {
		t.Fatalf("non-deterministic build: %+v vs %+v", a, b)
	}
}

func TestInsertedAtLeastStored(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	inserted := counted(eng, metricBuildInsertedPostings)
	stats := eng.Stats()
	if inserted < uint64(stats.StoredTotal) {
		t.Fatalf("inserted %d < stored %d", inserted, stats.StoredTotal)
	}
	// NDK truncation means strictly fewer stored than inserted here
	// (DFmax=6 guarantees truncation on this collection).
	if inserted == uint64(stats.StoredTotal) {
		t.Error("expected NDK truncation to drop postings")
	}
	if counted(eng, metricBuildNotifyKeys) == 0 {
		t.Error("no expansion notifications sent — NDKs must exist at DFmax=6")
	}
}

func TestVeryFrequentTermsExcluded(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	cfg.Ff = 50 // aggressive cutoff: head terms become "stop words"
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	freqs := col.TermFrequencies()
	vfCount := 0
	for id, f := range freqs {
		if f > cfg.Ff {
			vfCount++
			if st, _, _ := eng.KeyInfo(NewKey(corpus.TermID(id))); st != StatusAbsent {
				t.Fatalf("very frequent term %d (f=%d) present in index", id, f)
			}
		}
	}
	if vfCount == 0 {
		t.Fatal("test collection has no very frequent terms at Ff=50")
	}
}

// TestSearchBoundedTraffic checks §4.2's retrieval bound on every query:
// a query of |q| distinct terms probes at most QueryKeyCount(|q|, SMax)
// lattice keys and moves at most that many times DFmax postings. The
// pool holds queries longer than SMax, where the smax-limited key count
// is below 2^|q| − 1. The bound holds on the built index and across
// churn: after a crash (the view owes a repair, reads go primary-first),
// after the repair sweep, and after a graceful leave.
func TestSearchBoundedTraffic(t *testing.T) {
	col := testCollection(t, 80)
	cfg := testConfig(col, 6)
	cfg.ReplicationFactor = 2
	eng := buildEngine(t, col, 5, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	qp := corpus.DefaultQueryParams(25)
	qp.MinHits = 0
	queries, err := corpus.GenerateQueries(col, qp, cfg.Window, nil)
	if err != nil {
		t.Fatal(err)
	}
	long := 0
	for _, q := range queries {
		if len(dedupTerms(q.Terms)) > cfg.SMax {
			long++
		}
	}
	if long == 0 {
		t.Fatalf("no query longer than SMax=%d: the smax-limited bound never bites", cfg.SMax)
	}
	within := func(when string) {
		t.Helper()
		nodes := eng.net.Members()
		for i, q := range queries {
			res, err := eng.Search(q, nodes[i%len(nodes)], 20)
			if err != nil {
				t.Fatalf("%s: query %d: %v", when, i, err)
			}
			nk := analysis.QueryKeyCount(len(dedupTerms(q.Terms)), cfg.SMax)
			if float64(res.ProbedKeys) > nk {
				t.Fatalf("%s: query %d probed %d keys > QueryKeyCount = %g", when, i, res.ProbedKeys, nk)
			}
			if bound := nk * float64(cfg.DFMax); float64(res.FetchedPosts) > bound {
				t.Fatalf("%s: query %d fetched %d postings > QueryKeyCount*DFmax = %g", when, i, res.FetchedPosts, bound)
			}
		}
	}
	within("built")
	if err := eng.FailNode(eng.net.Members()[1]); err != nil {
		t.Fatal(err)
	}
	if !eng.net.View().Owed() {
		t.Fatal("a crash left no repair debt")
	}
	within("crashed, unrepaired")
	if _, err := eng.RepairReplicas(); err != nil {
		t.Fatal(err)
	}
	if eng.net.View().Owed() {
		t.Fatal("the repair sweep left the debt owed")
	}
	within("repaired")
	if err := eng.RemoveNode(eng.net.Members()[1]); err != nil {
		t.Fatal(err)
	}
	within("after a graceful leave")
}

func TestSearchFindsHDKDocs(t *testing.T) {
	// For a query that IS a stored HDK, retrieval must return exactly the
	// documents containing the key in a window (indexing exhaustiveness).
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	ref := referenceIndex(col, cfg)
	nodes := eng.net.Members()
	checked := 0
	for k, e := range ref[2] {
		if e.df > cfg.DFMax {
			continue // want an HDK
		}
		q := corpus.Query{Terms: k.Terms()}
		res, err := eng.Search(q, nodes[0], col.M())
		if err != nil {
			t.Fatal(err)
		}
		got := map[corpus.DocID]bool{}
		for _, r := range res.Results {
			got[r.Doc] = true
		}
		for doc := range e.docs {
			if !got[doc] {
				t.Fatalf("HDK query %v: doc %d missing from results", k.Terms(), doc)
			}
		}
		checked++
		if checked >= 10 {
			break
		}
	}
	if checked == 0 {
		t.Fatal("no size-2 HDKs to check — tighten the generator")
	}
}

func TestSearchRankedOrder(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	q := corpus.Query{Terms: col.Docs[0].Terms[:3]}
	res, err := eng.Search(q, eng.net.Members()[0], 20)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.Results); i++ {
		if res.Results[i].Score > res.Results[i-1].Score {
			t.Fatal("results not sorted by score")
		}
	}
}

func TestSearchDuplicateAndVFTerms(t *testing.T) {
	col := testCollection(t, 40)
	cfg := testConfig(col, 5)
	cfg.Ff = 50
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Query with a duplicated term and a VF term must not error and must
	// not probe supersets involving the VF term.
	freqs := col.TermFrequencies()
	var vf corpus.TermID
	for id, f := range freqs {
		if f > cfg.Ff {
			vf = corpus.TermID(id)
			break
		}
	}
	reg := col.Docs[0].Terms[0]
	q := corpus.Query{Terms: []corpus.TermID{reg, reg, vf}}
	res, err := eng.Search(q, eng.net.Members()[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.ProbedKeys > 1 {
		t.Fatalf("probed %d keys, want 1 (vf term excluded, duplicate collapsed)", res.ProbedKeys)
	}
}

func TestEngineValidation(t *testing.T) {
	net := overlay.NewNetwork(transport.NewInProc())
	net.AddNode("n0")
	cfg := DefaultConfig(statsFor(10, 50))
	if _, err := NewEngine(net, cfg, []string{"a1", "b2"}, []int{1}); err == nil {
		t.Error("vocab/freq length mismatch accepted")
	}
	cfg.DFMax = 0
	if _, err := NewEngine(net, cfg, []string{"a1"}, []int{1}); err == nil {
		t.Error("invalid config accepted")
	}
}

func TestPeerJoinsAfterEngine(t *testing.T) {
	// The churn scenario: a node added after engine construction can
	// still host a peer and participate.
	col := testCollection(t, 30)
	cfg := testConfig(col, 5)
	net := overlay.NewNetwork(transport.NewInProc())
	n0, _ := net.AddNode("n0")
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	parts := col.SplitRoundRobin(2)
	if _, err := eng.AddPeer(n0, parts[0]); err != nil {
		t.Fatal(err)
	}
	n1, err := net.AddNode("late-joiner")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := eng.AddPeer(n1, parts[1]); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	if eng.Stats().KeysTotal == 0 {
		t.Fatal("no keys indexed after late join")
	}
}
