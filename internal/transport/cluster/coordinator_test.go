package cluster

import (
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/replica"
	"repro/internal/transport"
)

// TestCoordinatorMatchesEngines is the node-side query path's parity
// core: every daemon must coordinate every query to the bit-identical
// ranked answer (and cost metrics) the in-process engine and the
// client-fabric engine produce — with reads placed, and again in a view
// that owes a repair, where reads go primary-first and a daemon's own
// store still serves the keys it leads.
func TestCoordinatorMatchesEngines(t *testing.T) {
	const peers, replicas = 4, 2
	col := testCollection(t, 120)
	cfg := testConfig(col, replicas)

	ref := buildReferenceEngine(t, col, peers, cfg)

	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, peers, replicas)
	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildClusterEngine(t, c, col, cfg)

	refOrigin := ref.Network().Members()[0]
	origins := make(map[string]overlay.Member, peers)
	for _, m := range c.Members() {
		origins[m.Addr()] = m
	}
	addrs := make([]string, 0, peers)
	for _, s := range servers {
		addrs = append(addrs, s.Addr())
	}
	queries := testQueries(col, 25)
	// check coordinates query qi through coord and returns how many of
	// its fetch batches coord read from its own store.
	check := func(phase string, qi int, coord string) (localReads int) {
		t.Helper()
		q := queries[qi]
		want, err := ref.Search(q, refOrigin, 10)
		if err != nil {
			t.Fatal(err)
		}
		// The client-fabric engine searches from the coordinating
		// member: read placement is a pure function of the replica
		// chains, the coordinating member and the view's repair debt, so
		// it computes the plan that daemon runs.
		viaFabric, err := eng.Search(q, origins[coord], 10)
		if err != nil {
			t.Fatal(err)
		}
		req := core.SearchRequest{Terms: eng.QueryTerms(q), K: 10, NoCache: true}
		got, trace, err := c.SearchTraceVia(coord, req)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Fatalf("%s query %d: coordinator diverges from in-process engine\nref:   %v\ncoord: %v",
				phase, qi, want.Results, got.Results)
		}
		// Postings/probe counts are placement-invariant (vs the reference
		// ring); RPC groupings depend on member addresses and on which
		// member coordinates, so the whole result — every counter — is
		// compared against the client fabric searching from the
		// coordinator's member, which shares both.
		if got.FetchedPosts != want.FetchedPosts || got.ProbedKeys != want.ProbedKeys ||
			got.FoundKeys != want.FoundKeys || got.Rounds != want.Rounds {
			t.Fatalf("%s query %d: coordinator metrics diverge: ref %+v, coord %+v", phase, qi, want, got)
		}
		if !reflect.DeepEqual(viaFabric, got) {
			t.Fatalf("%s query %d: coordinator diverges from client fabric\nfabric: %+v\ncoord:  %+v", phase, qi, viaFabric, got)
		}
		for _, i := range trace.Find("fetch") {
			if trace.Spans[i].Attr("local") == "true" {
				localReads++
			}
		}
		return localReads
	}
	for qi := range queries {
		// Rotate the coordinator: ANY daemon must produce the answer.
		check("placed", qi, addrs[qi%len(addrs)])
	}

	// A view that owes a repair reads every key primary-first. Forget a
	// member (with R = 2 each of its keys keeps a copy at the old
	// replica) and coordinate through every survivor: a coordinator that
	// is a key's primary reads it from its own store, so self's batch
	// leads a wave without read placement having chosen it.
	victim := addrs[len(addrs)-1]
	if err := eng.FailNode(origins[victim]); err != nil {
		t.Fatal(err)
	}
	if err := c.Forget(victim); err != nil {
		t.Fatal(err)
	}
	localReads := 0
	for qi := range queries {
		coord := addrs[qi%(len(addrs)-1)]
		if !servers[qi%(len(addrs)-1)].view().Unrepaired {
			t.Fatalf("%s does not owe a repair after the forget", coord)
		}
		localReads += check("owed", qi, coord)
	}
	if localReads == 0 {
		t.Fatal("no owed-view coordination read its own store")
	}
}

// TestCoordinatorResultCache exercises the per-node result LRU: a
// repeat query is answered from cache with zero new fetch RPCs anywhere
// in the cluster, a mutation served by the coordinator invalidates it,
// and the NoCache option bypasses it entirely.
func TestCoordinatorResultCache(t *testing.T) {
	const peers = 3
	col := testCollection(t, 80)
	cfg := testConfig(col, 1)

	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, peers, 1)
	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildClusterEngine(t, c, col, cfg)

	coord := servers[0].Addr()
	q := testQueries(col, 1)[0]
	req := core.SearchRequest{Terms: eng.QueryTerms(q), K: 10}

	first, cached, err := c.SearchVia(coord, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("cold query reported cached")
	}

	fetchesBefore := clusterFetchRPCs(t, tr, servers)
	again, cached, err := c.SearchVia(coord, req)
	if err != nil {
		t.Fatal(err)
	}
	if !cached {
		t.Fatal("repeat query not served from cache")
	}
	if !reflect.DeepEqual(first.Results, again.Results) {
		t.Fatal("cached answer differs from original")
	}
	if after := clusterFetchRPCs(t, tr, servers); after != fetchesBefore {
		t.Fatalf("repeat query cost %d fetch RPCs, want 0", after-fetchesBefore)
	}
	snap, err := FetchMetrics(tr, coord)
	if err != nil {
		t.Fatal(err)
	}
	if hits, rpcs := snap.CounterSum(metricSearchCacheHits), snap.CounterSum(metricSearchRPCs); hits == 0 || rpcs < 2 {
		t.Fatalf("coordinator counters: %d cache hits, %d search RPCs", hits, rpcs)
	}

	// Any mutation served by the coordinator (an empty repair batch is
	// the cheapest legitimate one) must drop its cached results.
	if _, err := c.CallService(coord, replica.Service, replica.EncodeBatch(nil, nil)); err != nil {
		t.Fatal(err)
	}
	_, cached, err = c.SearchVia(coord, req)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("query after mutation still served from cache")
	}

	// NoCache: neither reads nor fills the cache.
	nc := req
	nc.NoCache = true
	for i := 0; i < 2; i++ {
		res, cached, err := c.SearchVia(coord, nc)
		if err != nil {
			t.Fatal(err)
		}
		if cached {
			t.Fatalf("NoCache request %d served from cache", i)
		}
		if !reflect.DeepEqual(first.Results, res.Results) {
			t.Fatal("NoCache answer diverges")
		}
	}
}

// TestCoordinatorUnconfigured verifies a daemon refuses to coordinate
// before the cluster is configured.
func TestCoordinatorUnconfigured(t *testing.T) {
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 2, 1)
	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.SearchVia(servers[1].Addr(), core.SearchRequest{Terms: []string{"x"}, K: 5}); err == nil {
		t.Fatal("unconfigured daemon coordinated a search")
	}
}

// clusterFetchRPCs sums the daemons' served-fetch meters.
func clusterFetchRPCs(t *testing.T, tr transport.Transport, servers []*Server) uint64 {
	t.Helper()
	var total uint64
	for _, s := range servers {
		snap, err := FetchMetrics(tr, s.Addr())
		if err != nil {
			t.Fatal(err)
		}
		total += snap.CounterSum(metricFetchRPCs)
	}
	return total
}
