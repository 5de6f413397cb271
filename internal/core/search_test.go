package core

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/telemetry"
)

// searchQueries builds a deterministic query set against the collection.
func searchQueries(t testing.TB, col *corpus.Collection, n int) []corpus.Query {
	t.Helper()
	qp := corpus.DefaultQueryParams(n)
	qp.MinHits = 0
	queries, err := corpus.GenerateQueries(col, qp, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	return queries
}

// expectedSearchCost replays the lattice traversal against the ground
// truth (KeyInfo statuses, OwnerOf mapping) and returns the exact probe,
// RPC and round counts a cache-less Search must report: one batched fetch
// RPC per (owner, level), never one per key.
func expectedSearchCost(t *testing.T, eng *Engine, q corpus.Query) (probes, rpcs, rounds int) {
	t.Helper()
	maxSize := eng.cfg.SMax
	if len(q.Terms) < maxSize {
		maxSize = len(q.Terms)
	}
	terms := dedupTerms(q.Terms)
	usable := terms[:0:0]
	for _, tm := range terms {
		if int(tm) < len(eng.vf) && !eng.vf[tm] {
			usable = append(usable, tm)
		}
	}
	status := make(map[Key]KeyStatus)
	for size := 1; size <= maxSize; size++ {
		// Independent candidate enumeration (same subset order and
		// subsumption pruning as the engine's traversal).
		var level []Key
		var rec func(start int, cur []corpus.TermID)
		rec = func(start int, cur []corpus.TermID) {
			if len(cur) == size {
				key := NewKey(cur...)
				if size > 1 && !eng.allSubkeysNDStatus(key, status) {
					return
				}
				level = append(level, key)
				return
			}
			for i := start; i < len(usable); i++ {
				rec(i+1, append(cur, usable[i]))
			}
		}
		rec(0, nil)
		if len(level) == 0 {
			break
		}
		rounds++
		owners := make(map[string]bool)
		for _, key := range level {
			owner, ok := eng.net.OwnerOf(key.CanonicalString(eng.vocab))
			if !ok {
				t.Fatal("no owner for key")
			}
			owners[owner.Addr()] = true
			st, _, _ := eng.KeyInfo(key)
			status[key] = st
			probes++
		}
		rpcs += len(owners)
	}
	return probes, rpcs, rounds
}

func TestSearchBatchedRPCAccounting(t *testing.T) {
	col := testCollection(t, 80)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	nodes := eng.net.Members()
	queries := searchQueries(t, col, 25)
	multiKeyRPCSaved := false
	for i, q := range queries {
		wantProbes, wantRPCs, wantRounds := expectedSearchCost(t, eng, q)
		res, err := eng.Search(q, nodes[i%len(nodes)], 20)
		if err != nil {
			t.Fatal(err)
		}
		if res.ProbedKeys != wantProbes || res.RPCs != wantRPCs || res.Rounds != wantRounds {
			t.Fatalf("query %d: probes/rpcs/rounds = %d/%d/%d, want %d/%d/%d",
				i, res.ProbedKeys, res.RPCs, res.Rounds, wantProbes, wantRPCs, wantRounds)
		}
		// At most one RPC per (owner, level) — the batching guarantee.
		if res.RPCs > res.Rounds*eng.net.Size() {
			t.Fatalf("query %d: %d RPCs > %d rounds x %d owners", i, res.RPCs, res.Rounds, eng.net.Size())
		}
		if res.RPCs < res.ProbedKeys {
			multiKeyRPCSaved = true
		}
	}
	if !multiKeyRPCSaved {
		t.Fatal("no query batched several keys into one RPC — collection too sparse for the test")
	}
	snap := eng.Traffic().Snapshot()
	if snap.FetchRPCs == 0 || snap.QueryRounds == 0 {
		t.Fatalf("traffic counters not plumbed: %+v", snap)
	}
	if snap.FetchRPCs >= snap.ProbeMessages {
		t.Fatalf("aggregate RPCs %d >= probes %d: batching saved nothing", snap.FetchRPCs, snap.ProbeMessages)
	}
}

func TestSearchParallelMatchesSerial(t *testing.T) {
	col := testCollection(t, 80)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 5, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	nodes := eng.net.Members()
	queries := searchQueries(t, col, 20)
	// Engine.Search at a given fan-out: the traversal it runs, with the
	// fan-out set directly.
	searchAt := func(fanout int, q corpus.Query, from overlay.Member) *SearchResult {
		t.Helper()
		terms := eng.QueryTerms(q)
		ls := newLatticeSearch(eng.net, from, eng.cfg, &eng.traffic)
		ls.fanout = fanout
		res, err := ls.run(terms, min(eng.cfg.SMax, len(terms)), 20)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	for i, q := range queries {
		serial := searchAt(1, q, nodes[i%len(nodes)])
		parallel := searchAt(8, q, nodes[i%len(nodes)])
		if !reflect.DeepEqual(serial.Results, parallel.Results) {
			t.Fatalf("query %d: parallel results differ from serial", i)
		}
		if serial.FetchedPosts != parallel.FetchedPosts || serial.ProbedKeys != parallel.ProbedKeys ||
			serial.FoundKeys != parallel.FoundKeys || serial.RPCs != parallel.RPCs ||
			serial.Rounds != parallel.Rounds {
			t.Fatalf("query %d: cost metrics differ: serial %+v vs parallel %+v", i, serial, parallel)
		}
	}
}

// TestConcurrentSearches exercises the worker pool from many goroutines
// sharing one engine — the -race target the batched fan-out must survive.
func TestConcurrentSearches(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildEngine(t, col, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	nodes := eng.net.Members()
	queries := searchQueries(t, col, 10)

	// Reference answers come from a second, identically-built engine, so
	// the concurrent phase below is the first traffic eng serves.
	engRef := buildEngine(t, col, 4, cfg)
	if err := engRef.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	refNodes := engRef.net.Members()
	want := make([][]corpus.DocID, len(queries))
	for i, q := range queries {
		res, err := engRef.Search(q, refNodes[i%len(refNodes)], 20)
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range res.Results {
			want[i] = append(want[i], r.Doc)
		}
	}

	goroutines := 8
	if testing.Short() {
		goroutines = 4
	}
	var wg sync.WaitGroup
	errCh := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 3; rep++ {
				for i, q := range queries {
					res, err := eng.Search(q, nodes[(i+g)%len(nodes)], 20)
					if err != nil {
						errCh <- err
						return
					}
					if len(res.Results) != len(want[i]) {
						t.Errorf("goroutine %d query %d: %d results, want %d", g, i, len(res.Results), len(want[i]))
						return
					}
					for j, r := range res.Results {
						if want[i][j] != r.Doc {
							t.Errorf("goroutine %d query %d: result %d diverged", g, i, j)
							return
						}
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestUntracedSearchAllocs pins the allocations of untraced
// Engine.Search over InProc at the configured fan-out: with a nil trace
// no span attribute is built, so a query pays nothing for tracing.
func TestUntracedSearchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items, so counts are not exact")
	}
	col := testCollection(t, 80)
	eng := buildEngine(t, col, 4, testConfig(col, 6))
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	from := eng.net.Members()[0]
	queries := searchQueries(t, col, 8)
	allocs := testing.AllocsPerRun(50, func() {
		for _, q := range queries {
			if _, err := eng.Search(q, from, 20); err != nil {
				t.Fatal(err)
			}
		}
	})
	const ceiling = 932
	if allocs > ceiling {
		t.Fatalf("%d untraced queries allocate %.0f times, ceiling %d", len(queries), allocs, ceiling)
	}
}

// TestCoordinatorTermBound: a coordination refuses more than
// maxSearchTerms terms before probing anything, and accepts exactly that
// many — real vocabulary terms, so the lattice is probed past level 1.
func TestCoordinatorTermBound(t *testing.T) {
	col := testCollection(t, 80)
	eng := buildEngine(t, col, 4, testConfig(col, 6))
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var terms []string
	for id, word := range eng.vocab {
		if !eng.vf[id] && len(terms) <= maxSearchTerms {
			terms = append(terms, word)
		}
	}
	if len(terms) <= maxSearchTerms {
		t.Fatalf("vocabulary has only %d usable terms", len(terms))
	}
	reg := telemetry.NewRegistry()
	c := Coordinator{Net: eng.net, Cfg: eng.cfg, From: eng.net.Members()[0], Metrics: NewQueryMetrics(reg)}
	if res, err := c.Search(terms, 10); err == nil {
		t.Fatalf("%d terms coordinated: %+v", len(terms), res)
	}
	if probes := reg.Snapshot().CounterSum(metricQueryProbes); probes != 0 {
		t.Fatalf("a refused query probed %d keys", probes)
	}
	res, err := c.Search(terms[:maxSearchTerms], 10)
	if err != nil {
		t.Fatal(err)
	}
	if res.Rounds < 2 || len(res.Results) == 0 {
		t.Fatalf("%d terms: %d rounds, %d results", maxSearchTerms, res.Rounds, len(res.Results))
	}
}
