package experiments

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the node-side serving scenario: the same cluster
// the TCPCluster scenario builds, queried through the daemons' own
// hdk.search coordinators instead of a fat client. The scenario
// verifies — not assumes — the coordination contract end to end:
// every daemon coordinates every query to the bit-identical answer the
// in-process engine and the client-fabric engine produce; a repeat
// query is served from the coordinator's result cache with ZERO fetch
// RPCs anywhere in the cluster; an incremental index update invalidates
// every cache and the next coordination matches the updated reference;
// and with the cache forced off, coordinations keep answering
// bit-identically after a daemon their read plans name is SIGKILLed —
// node-side replica failover. The CI cluster-e2e job runs this against
// 5 real child processes (TestTCPServeE2E).

// TCPServeOpts parameterizes the serving scenario.
type TCPServeOpts struct {
	Nodes     int // daemon processes
	Replicas  int // replication factor R
	Docs      int // corpus size built initially
	ExtraDocs int // staged afterwards via AddDocuments + UpdateIndex
	DFMax     int
	Window    int
	Queries   int
	TopK      int
	Seed      int64
}

// DefaultTCPServeOpts is the CI-gated configuration: a 5-process
// cluster at R=3, an incremental update, one crash.
func DefaultTCPServeOpts() TCPServeOpts {
	return TCPServeOpts{
		Nodes: 5, Replicas: 3, Docs: 150, ExtraDocs: 30, DFMax: 8, Window: 8,
		Queries: 30, TopK: 10, Seed: 11,
	}
}

// TCPServeReport is the scenario's measurement. The Mismatches fields
// must all be 0, RepeatCached must equal Queries, RepeatFetchRPCs and
// PostUpdateCached must be 0, and FailoverBatches must be positive.
type TCPServeReport struct {
	Nodes    int
	Replicas int
	Docs     int
	Queries  int

	// Pre-update parity: coordinated answers vs the in-process
	// reference and vs the client-fabric engine.
	ClientMismatches int // client-fabric engine vs in-process reference
	CoordMismatches  int // coordinator vs in-process reference

	// Result-cache proof: the identical query set re-sent with
	// identical coordinator routing.
	RepeatCached     int    // responses flagged served-from-cache (want = Queries)
	RepeatMismatches int    // cached answers diverging from the originals
	RepeatFetchRPCs  uint64 // cluster-wide hdk.fetchBatch delta across the repeat pass (want 0)

	// Invalidation proof: after AddDocuments + UpdateIndex.
	PostUpdateCached     int // responses still served from cache (want 0)
	PostUpdateMismatches int // coordinator vs the updated reference

	// Failover proof: cache bypassed, one daemon SIGKILLed.
	FailoverMismatches int // post-crash coordinations vs the updated reference
	FailoverBatches    int // fetch batches re-sent to an alternate replica (want > 0)

	// Aggregate daemon-side counters after the run.
	SearchRPCs  uint64
	CacheHits   uint64
	CacheMisses uint64
}

// Clean reports whether every gate of the scenario held.
func (r *TCPServeReport) Clean() bool {
	return r.ClientMismatches == 0 && r.CoordMismatches == 0 &&
		r.RepeatCached == r.Queries && r.RepeatMismatches == 0 && r.RepeatFetchRPCs == 0 &&
		r.PostUpdateCached == 0 && r.PostUpdateMismatches == 0 &&
		r.FailoverMismatches == 0 && r.FailoverBatches > 0
}

// TCPServe runs the serving scenario against an already-running
// cluster: addrs are the daemon addresses (start order), crash kills
// the process behind addrs[i].
func TCPServe(tr transport.Transport, addrs []string, crash func(i int) error,
	opts TCPServeOpts, progress Progress) (*TCPServeReport, error) {
	if progress == nil {
		progress = nopProgress
	}
	if len(addrs) != opts.Nodes {
		return nil, fmt.Errorf("experiments: %d addresses for %d nodes", len(addrs), opts.Nodes)
	}

	full, err := corpus.Generate(corpus.GenParams{
		NumDocs: opts.Docs + opts.ExtraDocs, VocabSize: 2000, AvgDocLen: 50,
		Skew: 1.0, NumTopics: 8, TopicTerms: 80, TopicMix: 0.5, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	col := full.Slice(0, opts.Docs)
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	qp := corpus.DefaultQueryParams(opts.Queries)
	qp.MinHits = 2
	queries, err := corpus.GenerateQueries(col, qp, opts.Window, cen.ConjunctiveHits)
	if err != nil {
		return nil, fmt.Errorf("query generation: %w", err)
	}

	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = opts.DFMax
	cfg.Window = opts.Window
	cfg.ReplicationFactor = opts.Replicas

	// In-process reference over the initial corpus; its peers are kept
	// so the same incremental update can be applied to it later.
	ref, refPeers, err := buildServeReference(full, col, opts.Nodes, cfg)
	if err != nil {
		return nil, err
	}
	refOrigin := ref.Network().Members()[0]

	// Cluster build through the daemons, keeping the peers for the
	// staged update.
	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	if err := c.Configure(cfg); err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(c, cfg, full.Vocab, full.TermFrequencies())
	if err != nil {
		return nil, err
	}
	members := c.Members()
	cluPeers := make([]*core.Peer, opts.Nodes)
	for i, part := range col.SplitRoundRobin(opts.Nodes) {
		if cluPeers[i], err = eng.AddPeer(members[i], part); err != nil {
			return nil, err
		}
	}
	progress("tcpserve: building %d docs over %d processes (R=%d)", col.M(), opts.Nodes, opts.Replicas)
	if err := eng.BuildIndex(); err != nil {
		return nil, fmt.Errorf("cluster build: %w", err)
	}

	rep := &TCPServeReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: col.M(), Queries: len(queries),
	}

	// Phase 1: parity. Per query: in-process reference, client-fabric
	// engine, and a coordination by the daemon addrs[i % Nodes] — every
	// daemon coordinates part of the set.
	reqs := make([]core.SearchRequest, len(queries))
	intact := make([][]rank.Result, len(queries))
	cluOrigin := members[0]
	for i, q := range queries {
		want, err := ref.Search(q, refOrigin, opts.TopK)
		if err != nil {
			return nil, err
		}
		intact[i] = want.Results
		viaFabric, err := eng.Search(q, cluOrigin, opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("fabric query %d: %w", i, err)
		}
		if !reflect.DeepEqual(want.Results, viaFabric.Results) {
			rep.ClientMismatches++
		}
		reqs[i] = core.SearchRequest{Terms: eng.QueryTerms(q), K: opts.TopK}
		got, cached, err := c.SearchVia(addrs[i%len(addrs)], reqs[i])
		if err != nil {
			return nil, fmt.Errorf("coordinated query %d: %w", i, err)
		}
		if cached {
			return nil, fmt.Errorf("coordinated query %d: cached on a fresh cluster", i)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			rep.CoordMismatches++
		}
	}
	progress("tcpserve: parity %d/%d fabric, %d/%d coordinated",
		len(queries)-rep.ClientMismatches, len(queries),
		len(queries)-rep.CoordMismatches, len(queries))

	// Phase 2: the repeat pass must be answered entirely from the
	// coordinators' result caches — zero fetch RPCs cluster-wide.
	fetchesBefore, err := clusterFetchMeter(tr, addrs)
	if err != nil {
		return nil, err
	}
	for i := range queries {
		got, cached, err := c.SearchVia(addrs[i%len(addrs)], reqs[i])
		if err != nil {
			return nil, fmt.Errorf("repeat query %d: %w", i, err)
		}
		if cached {
			rep.RepeatCached++
		}
		if !reflect.DeepEqual(intact[i], got.Results) {
			rep.RepeatMismatches++
		}
	}
	fetchesAfter, err := clusterFetchMeter(tr, addrs)
	if err != nil {
		return nil, err
	}
	rep.RepeatFetchRPCs = fetchesAfter - fetchesBefore
	progress("tcpserve: repeat pass %d/%d cached, %d fetch RPCs", rep.RepeatCached, len(queries), rep.RepeatFetchRPCs)

	// Phase 3: stage the extra documents on BOTH engines, update, and
	// verify the caches were invalidated by the update's write-through
	// mutations — fresh coordinations matching the updated reference.
	extraParts := splitTail(full, col.M(), opts.Nodes)
	for i := range extraParts {
		if err := cluPeers[i].AddDocuments(extraParts[i]); err != nil {
			return nil, err
		}
		if err := refPeers[i].AddDocuments(extraParts[i]); err != nil {
			return nil, err
		}
	}
	if err := eng.UpdateIndex(); err != nil {
		return nil, fmt.Errorf("cluster update: %w", err)
	}
	if err := ref.UpdateIndex(); err != nil {
		return nil, fmt.Errorf("reference update: %w", err)
	}
	updated := make([][]rank.Result, len(queries))
	for i, q := range queries {
		want, err := ref.Search(q, refOrigin, opts.TopK)
		if err != nil {
			return nil, err
		}
		updated[i] = want.Results
		got, cached, err := c.SearchVia(addrs[i%len(addrs)], reqs[i])
		if err != nil {
			return nil, fmt.Errorf("post-update query %d: %w", i, err)
		}
		if cached {
			rep.PostUpdateCached++
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			rep.PostUpdateMismatches++
		}
	}
	progress("tcpserve: post-update %d stale-cached, %d/%d parity",
		rep.PostUpdateCached, len(queries)-rep.PostUpdateMismatches, len(queries))

	// Phase 4: crash the owner of the first query's first probed term
	// and coordinate through the surviving daemons with the cache forced
	// off — the traversal must fail over to the replicas and keep
	// answering bit-identically. Owning a key is not the same as being
	// read for it: a coordinator reads its own copy first and covers the
	// rest with the fewest other members (core.ReadPlan), so a single
	// survivor may route around the dead process without ever choosing
	// it. Each query is therefore coordinated by a survivor whose
	// first-level plan reads from the victim when one exists (the first
	// level's candidates are the query's terms, so its plan is computable
	// up front), and by the survivors in rotation otherwise — the crash
	// is exercised by construction, not by luck.
	victim, ok := c.OwnerOf(full.Vocab[queries[0].Terms[0]])
	if !ok {
		return nil, fmt.Errorf("experiments: empty membership")
	}
	victimIdx := -1
	var survivors []string
	for i, a := range addrs {
		if a == victim.Addr() {
			victimIdx = i
		} else {
			survivors = append(survivors, a)
		}
	}
	if victimIdx < 0 || len(survivors) == 0 {
		return nil, fmt.Errorf("experiments: victim %s not in address list", victim.Addr())
	}
	progress("tcpserve: crashing process %d (%s), coordinating via the %d survivors", victimIdx, victim.Addr(), len(survivors))
	if err := crash(victimIdx); err != nil {
		return nil, fmt.Errorf("crash process %d: %w", victimIdx, err)
	}
	planned := 0
	for i := range queries {
		coord := survivors[i%len(survivors)]
		if m := c.CoordinatorReading(reqs[i].Terms, opts.Replicas, victim.Addr()); m != nil {
			coord = m.Addr()
			planned++
		}
		req := reqs[i]
		req.NoCache = true
		got, _, err := c.SearchVia(coord, req)
		if err != nil {
			return nil, fmt.Errorf("post-crash query %d: %w", i, err)
		}
		if !reflect.DeepEqual(updated[i], got.Results) {
			rep.FailoverMismatches++
		}
		rep.FailoverBatches += got.Failovers
	}
	if planned == 0 {
		return nil, fmt.Errorf("experiments: no survivor's read plan names the crashed member %s — the query set cannot exercise failover", victim.Addr())
	}
	progress("tcpserve: post-crash %d/%d parity, %d failover batches",
		len(queries)-rep.FailoverMismatches, len(queries), rep.FailoverBatches)

	// Aggregate the survivors' serving counters.
	for i, addr := range addrs {
		if i == victimIdx {
			continue
		}
		info, err := cluster.FetchInfo(tr, addr)
		if err != nil {
			return nil, fmt.Errorf("info from %s: %w", addr, err)
		}
		rep.SearchRPCs += info.SearchRPCs
		rep.CacheHits += info.SearchCacheHits
		rep.CacheMisses += info.SearchCacheMisses
	}
	return rep, nil
}

// buildServeReference constructs the in-process reference engine over
// the initial corpus slice, returning its peers so the scenario can
// stage the same incremental update on it.
func buildServeReference(full, col *corpus.Collection, peers int, cfg core.Config) (*core.Engine, []*core.Peer, error) {
	net := overlay.NewNetwork(transport.NewInProc())
	nodes := make([]*overlay.Node, 0, peers)
	for i := 0; i < peers; i++ {
		n, err := net.AddNode(fmt.Sprintf("ref-%d", i))
		if err != nil {
			return nil, nil, err
		}
		nodes = append(nodes, n)
	}
	eng, err := core.NewEngine(net, cfg, full.Vocab, full.TermFrequencies())
	if err != nil {
		return nil, nil, err
	}
	ps := make([]*core.Peer, peers)
	for i, part := range col.SplitRoundRobin(peers) {
		if ps[i], err = eng.AddPeer(nodes[i], part); err != nil {
			return nil, nil, err
		}
	}
	if err := eng.BuildIndex(); err != nil {
		return nil, nil, err
	}
	return eng, ps, nil
}

// splitTail distributes full's documents beyond `built` across peers
// exactly as a from-scratch SplitRoundRobin of the full collection
// would, so the incremental build places every document on the peer the
// reference split expects.
func splitTail(full *corpus.Collection, built, peers int) []*corpus.Collection {
	return splitRange(full, built, full.M(), peers)
}

// Fprint renders the serving scenario report.
func (r *TCPServeReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "TCP serve — %d hdknode coordinators, R=%d, %d docs, %d queries\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries)
	fmt.Fprintf(w, "parity: %d fabric / %d coordinated mismatches vs in-process engine\n",
		r.ClientMismatches, r.CoordMismatches)
	fmt.Fprintf(w, "cache: repeat %d/%d cached (%d mismatches, %d fetch RPCs) | post-update %d stale, %d mismatches\n",
		r.RepeatCached, r.Queries, r.RepeatMismatches, r.RepeatFetchRPCs, r.PostUpdateCached, r.PostUpdateMismatches)
	fmt.Fprintf(w, "failover: %d mismatches, %d re-sent batches | served %d coordinations, cache %d hits / %d misses\n",
		r.FailoverMismatches, r.FailoverBatches, r.SearchRPCs, r.CacheHits, r.CacheMisses)
}
