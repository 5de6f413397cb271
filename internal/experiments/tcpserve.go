package experiments

import (
	"fmt"
	"io"
	"reflect"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the deployment and serving scenario: the engine
// the in-process experiments measure builds a cluster of hdknode OS
// processes over pooled TCP through the client fabric, and the
// scenario verifies — not assumes — that deployment changes nothing and
// that the daemons' own hdk.search coordinators serve it correctly:
// every daemon coordinates every query to the bit-identical answer the
// in-process engine and the client-fabric engine produce; a repeat
// query is served from the coordinator's result cache with ZERO fetch
// RPCs anywhere in the cluster; an incremental index update invalidates
// every cache and the next coordination matches the updated reference;
// with the cache forced off, coordinations keep answering
// bit-identically after a daemon their read plans name is SIGKILLed
// (node-side replica failover), and so does the client fabric (zero
// recall loss at R=3). The dead member is then forgotten: every
// survivor still coordinates bit-identically while the cluster owes a
// repair, the audit sees the deficit, and a repair sweep restores full
// R-way coverage. The CI cluster-e2e job runs this against 5 real
// child processes (TestTCPServeE2E).

// TCPServeOpts parameterizes the scenario.
type TCPServeOpts struct {
	ClusterOpts
	ExtraDocs int // staged after the build via AddDocuments + UpdateIndex
}

// DefaultTCPServeOpts is the CI-gated configuration: a 5-process
// cluster at R=3, an incremental update, one crash.
func DefaultTCPServeOpts() TCPServeOpts {
	return TCPServeOpts{ClusterOpts: DefaultClusterOpts(), ExtraDocs: 30}
}

// TCPServeReport is the scenario's measurement; Failures lists the
// gates it misses.
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

	// The same crash seen by the client fabric, whose view still lists
	// the dead process: recall@TopK vs the updated reference (want 1).
	RecallAfterCrash  float64
	FailoversPerQuery float64

	// Forget and repair: every survivor coordinating every query after
	// the dead member is forgotten, before and after the repair sweep
	// (want 0 each), and the audit around the sweep.
	UnrepairedMismatches int
	RepairedMismatches   int
	UnderAfterCrash      int // under-replicated keys once the member is forgotten (want > 0)
	CopiesRepaired       int
	RepairRPCs           int
	UnderAfterRepair     int // want 0
	RecallAfterRepair    float64

	// Aggregate daemon-side counters after the run.
	SearchRPCs  uint64
	CacheHits   uint64
	CacheMisses uint64

	// Cost of running over real sockets.
	WireMessages uint64
	WireBytes    uint64
	PoolDials    uint64
	PoolReuses   uint64
}

// Failures returns one message per gate the run missed.
func (r *TCPServeReport) Failures() []string {
	var g gates
	g.check(r.ClientMismatches == 0, "%d client-fabric queries diverged from the in-process engine", r.ClientMismatches)
	g.check(r.CoordMismatches == 0, "%d coordinated queries diverged from the in-process engine", r.CoordMismatches)
	g.check(r.RepeatCached == r.Queries, "repeat pass: %d/%d served from cache", r.RepeatCached, r.Queries)
	g.check(r.RepeatMismatches == 0, "%d cached answers diverged from the originals", r.RepeatMismatches)
	g.check(r.RepeatFetchRPCs == 0, "repeat pass cost %d fetch RPCs, want 0 (result caches bypassed?)", r.RepeatFetchRPCs)
	g.check(r.PostUpdateCached == 0, "%d post-update answers served from a stale cache", r.PostUpdateCached)
	g.check(r.PostUpdateMismatches == 0, "%d post-update coordinations diverged from the updated reference", r.PostUpdateMismatches)
	g.check(r.FailoverMismatches == 0, "%d post-crash coordinations diverged — node-side failover broken", r.FailoverMismatches)
	g.check(r.FailoverBatches > 0, "no coordinated fetch batch failed over — the crash was not exercised by the query set")
	g.check(r.RecallAfterCrash == 1, "recall after crash = %.4f, want 1.0 at R=%d", r.RecallAfterCrash, r.Replicas)
	g.check(r.FailoversPerQuery > 0, "no client-fabric fetch batch failed over — the crash was not exercised by the query set")
	g.check(r.UnrepairedMismatches == 0, "%d coordinations diverged from the reference after the forget, before the repair", r.UnrepairedMismatches)
	g.check(r.UnderAfterCrash > 0, "audit reports full coverage immediately after losing a process")
	g.check(r.UnderAfterRepair == 0, "%d keys under-replicated after repair, want 0", r.UnderAfterRepair)
	g.check(r.RecallAfterRepair == 1, "recall after repair = %.4f, want 1.0", r.RecallAfterRepair)
	g.check(r.RepairedMismatches == 0, "%d coordinations diverged from the reference after the repair", r.RepairedMismatches)
	g.check(r.CacheHits > 0 && r.SearchRPCs > 0, "daemon serving counters empty: %d search RPCs, %d cache hits", r.SearchRPCs, r.CacheHits)
	g.check(r.PoolDials > 0 && r.PoolReuses > 0, "pool counters empty (dials=%d reuses=%d) — pooled transport not exercised", r.PoolDials, r.PoolReuses)
	// The pool must keep the dial count far below one per RPC.
	g.check(r.PoolDials*10 <= r.WireMessages, "%d dials for %d RPCs — connection pooling ineffective", r.PoolDials, r.WireMessages)
	return g
}

// Clean reports whether every gate of the scenario held.
func (r *TCPServeReport) Clean() bool { return len(r.Failures()) == 0 }

// TCPServe runs the scenario against an already-running cluster: addrs
// are the daemon addresses (start order), crash kills the process
// behind addrs[i] (cluster.Harness.Kill for real processes). The given
// transport carries all client traffic; pass a *transport.TCP to get
// pool counters in the report.
func TCPServe(tr transport.Transport, addrs []string, crash func(i int) error,
	opts TCPServeOpts, progress Progress) (*TCPServeReport, error) {
	f, err := newFixture(tr, addrs, opts.ClusterOpts, opts.ExtraDocs, progress)
	if err != nil {
		return nil, err
	}
	c, queries := f.c, f.queries
	eng, cluPeers, err := f.build("tcpserve")
	if err != nil {
		return nil, err
	}
	rep := &TCPServeReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: f.col.M(), Queries: len(queries),
	}
	reqs := f.requests(false)

	// The victim is the member that owns the first query's first term.
	// Owning a key is not yet being read for it, though: a coordinator
	// reads its own copy first and covers the rest with the fewest other
	// members (core.ReadPlan). So the client fabric searches from a
	// surviving member whose first-level plan for some query reads from
	// the victim (the first level's candidates are the query's terms, so
	// its plan is computable up front) — the query set exercises the
	// failover path by construction instead of by coin flip.
	victim, victimIdx, err := f.probedOwner()
	if err != nil {
		return nil, err
	}
	var origin overlay.Member
	for _, req := range reqs {
		if origin = c.CoordinatorReading(req.Terms, opts.Replicas, victim.Addr()); origin != nil {
			break
		}
	}
	if origin == nil {
		return nil, fmt.Errorf("experiments: no surviving member's read plan names %s — the query set cannot exercise failover", victim.Addr())
	}

	// Phase 1: parity. Per query: in-process reference, client-fabric
	// engine, and a coordination by the daemon addrs[i % Nodes] — every
	// daemon coordinates part of the set.
	for i, q := range queries {
		viaFabric, err := eng.Search(q, origin, opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("fabric query %d: %w", i, err)
		}
		if !reflect.DeepEqual(f.want[i], viaFabric.Results) {
			rep.ClientMismatches++
		}
		got, cached, err := c.SearchVia(addrs[i%len(addrs)], reqs[i])
		if err != nil {
			return nil, fmt.Errorf("coordinated query %d: %w", i, err)
		}
		if cached {
			return nil, fmt.Errorf("coordinated query %d: cached on a fresh cluster", i)
		}
		if !reflect.DeepEqual(f.want[i], got.Results) {
			rep.CoordMismatches++
		}
	}
	f.progress("tcpserve: parity %d/%d fabric, %d/%d coordinated",
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
		if !reflect.DeepEqual(f.want[i], got.Results) {
			rep.RepeatMismatches++
		}
	}
	fetchesAfter, err := clusterFetchMeter(tr, addrs)
	if err != nil {
		return nil, err
	}
	rep.RepeatFetchRPCs = fetchesAfter - fetchesBefore
	f.progress("tcpserve: repeat pass %d/%d cached, %d fetch RPCs", rep.RepeatCached, len(queries), rep.RepeatFetchRPCs)

	// Phase 3: stage the extra documents on BOTH engines, update, and
	// verify the caches were invalidated by the update's write-through
	// mutations — fresh coordinations matching the updated reference.
	for i, part := range splitRange(f.full, f.col.M(), f.full.M(), opts.Nodes) {
		if err := cluPeers[i].AddDocuments(part); err != nil {
			return nil, err
		}
		if err := f.refPeers[i].AddDocuments(part); err != nil {
			return nil, err
		}
	}
	if err := eng.UpdateIndex(); err != nil {
		return nil, fmt.Errorf("cluster update: %w", err)
	}
	if err := f.ref.UpdateIndex(); err != nil {
		return nil, fmt.Errorf("reference update: %w", err)
	}
	updated, err := f.answers()
	if err != nil {
		return nil, err
	}
	for i := range queries {
		got, cached, err := c.SearchVia(addrs[i%len(addrs)], reqs[i])
		if err != nil {
			return nil, fmt.Errorf("post-update query %d: %w", i, err)
		}
		if cached {
			rep.PostUpdateCached++
		}
		if !reflect.DeepEqual(updated[i], got.Results) {
			rep.PostUpdateMismatches++
		}
	}
	f.progress("tcpserve: post-update %d stale-cached, %d/%d parity",
		rep.PostUpdateCached, len(queries)-rep.PostUpdateMismatches, len(queries))

	// Phase 4: crash the victim — the client is NOT told — and
	// coordinate through the surviving daemons with the cache forced
	// off: the traversal must fail over to the replicas and keep
	// answering bit-identically. Each query is coordinated by a
	// survivor whose first-level plan reads from the victim when one
	// exists, and by the survivors in rotation otherwise.
	var survivors []string
	for i, a := range addrs {
		if i != victimIdx {
			survivors = append(survivors, a)
		}
	}
	f.progress("tcpserve: crashing process %d (%s), coordinating via the %d survivors", victimIdx, victim.Addr(), len(survivors))
	if err := crash(victimIdx); err != nil {
		return nil, fmt.Errorf("crash process %d: %w", victimIdx, err)
	}
	for i := range queries {
		coord := survivors[i%len(survivors)]
		if m := c.CoordinatorReading(reqs[i].Terms, opts.Replicas, victim.Addr()); m != nil {
			coord = m.Addr()
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
	f.progress("tcpserve: post-crash %d/%d parity, %d failover batches",
		len(queries)-rep.FailoverMismatches, len(queries), rep.FailoverBatches)

	// Phase 5: the client fabric meets the same crash through dead
	// fetches and must fail over to the replicas too.
	if rep.RecallAfterCrash, rep.FailoversPerQuery, err = availabilityRecall(eng, queries, updated, origin, opts.TopK); err != nil {
		return nil, fmt.Errorf("post-crash fabric query: %w", err)
	}

	// Phase 6: remove the dead member — from the engine's view AND from
	// the daemons' bootstrap membership, so clients connecting later do
	// not rediscover the dead address.
	if err := eng.FailNode(victim); err != nil {
		return nil, err
	}
	if err := c.Forget(victim.Addr()); err != nil {
		return nil, fmt.Errorf("forget dead member: %w", err)
	}
	survivor := c.Members()[0].Addr()
	if fresh, err := cluster.MembersOf(tr, survivor); err != nil || len(fresh) != opts.Nodes-1 {
		return nil, fmt.Errorf("post-forget discovery via %s: %d members (err %v), want %d",
			survivor, len(fresh), err, opts.Nodes-1)
	}
	// Forgotten but not yet repaired: the daemons' replica sets now name
	// members the crash promoted, which hold no copy. Every survivor must
	// still coordinate every query bit-identically — each reports its
	// view unrepaired and reads primary-first until the sweep reports in.
	if rep.UnrepairedMismatches, err = coordinatedMismatches(tr, c, reqs, updated, true); err != nil {
		return nil, fmt.Errorf("forgotten, unrepaired: %w", err)
	}

	// Phase 7: audit and repair through the ENGINE's own methods: its
	// inventory reaches the daemon-hosted stores over the index RPCs,
	// so the call an in-process deployment uses restores coverage here
	// too. The sweep tells the daemons, and they place reads again.
	rep.UnderAfterCrash = eng.AuditReplicas().UnderReplicated
	rstats, err := eng.RepairReplicas()
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.CopiesRepaired, rep.RepairRPCs = rstats.CopiesSent, rstats.RepairRPCs
	rep.UnderAfterRepair = eng.AuditReplicas().UnderReplicated
	if rep.RecallAfterRepair, _, err = availabilityRecall(eng, queries, updated, origin, opts.TopK); err != nil {
		return nil, fmt.Errorf("post-repair query: %w", err)
	}
	if rep.RepairedMismatches, err = coordinatedMismatches(tr, c, reqs, updated, false); err != nil {
		return nil, fmt.Errorf("repaired: %w", err)
	}
	f.progress("tcpserve: fabric recall %.4f after crash (%.2f failovers/query), %.4f after repair (%d copies shipped, %d under-replicated left)",
		rep.RecallAfterCrash, rep.FailoversPerQuery, rep.RecallAfterRepair, rep.CopiesRepaired, rep.UnderAfterRepair)

	// Aggregate the survivors' serving counters and the client's pool.
	for _, m := range c.Members() {
		info, err := cluster.FetchInfo(tr, m.Addr())
		if err != nil {
			return nil, fmt.Errorf("info from %s: %w", m.Addr(), err)
		}
		rep.SearchRPCs += info.SearchRPCs
		rep.CacheHits += info.SearchCacheHits
		rep.CacheMisses += info.SearchCacheMisses
	}
	st := tr.Stats()
	rep.WireMessages, rep.WireBytes = st.Messages, st.Bytes
	if tcp, ok := tr.(*transport.TCP); ok {
		ps := tcp.PoolStats()
		rep.PoolDials, rep.PoolReuses = ps.Dials, ps.Reuses
	}
	return rep, nil
}

// coordinatedMismatches has every member of the client's view coordinate
// every request (result cache off) and counts the answers that differ
// from want; it also holds each daemon's self-reported repair state to
// what the scenario expects at that point.
func coordinatedMismatches(tr transport.Transport, c *cluster.Client,
	reqs []core.SearchRequest, want [][]rank.Result, unrepaired bool) (int, error) {
	mismatches := 0
	for _, m := range c.Members() {
		info, err := cluster.FetchInfo(tr, m.Addr())
		if err != nil {
			return 0, err
		}
		if info.Unrepaired != unrepaired {
			return 0, fmt.Errorf("%s reports unrepaired=%t, want %t", m.Addr(), info.Unrepaired, unrepaired)
		}
		for i, req := range reqs {
			req.NoCache = true
			res, _, err := c.SearchVia(m.Addr(), req)
			if err != nil {
				return 0, fmt.Errorf("query %d via %s: %w", i, m.Addr(), err)
			}
			if !reflect.DeepEqual(want[i], res.Results) {
				mismatches++
			}
		}
	}
	return mismatches, nil
}

// clusterFetchMeter sums the daemons' served hdk.fetchBatch counters.
func clusterFetchMeter(tr transport.Transport, addrs []string) (uint64, error) {
	var total uint64
	for _, addr := range addrs {
		info, err := cluster.FetchInfo(tr, addr)
		if err != nil {
			return 0, fmt.Errorf("experiments: info from %s: %w", addr, err)
		}
		total += info.FetchRPCs
	}
	return total, nil
}

// Fprint renders the scenario report.
func (r *TCPServeReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "TCP serve — %d hdknode coordinators, R=%d, %d docs, %d queries\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries)
	fmt.Fprintf(w, "parity: %d fabric / %d coordinated mismatches vs in-process engine\n",
		r.ClientMismatches, r.CoordMismatches)
	fmt.Fprintf(w, "cache: repeat %d/%d cached (%d mismatches, %d fetch RPCs) | post-update %d stale, %d mismatches\n",
		r.RepeatCached, r.Queries, r.RepeatMismatches, r.RepeatFetchRPCs, r.PostUpdateCached, r.PostUpdateMismatches)
	fmt.Fprintf(w, "failover: %d mismatches, %d re-sent batches | fabric recall %.4f (%.2f failovers/query)\n",
		r.FailoverMismatches, r.FailoverBatches, r.RecallAfterCrash, r.FailoversPerQuery)
	fmt.Fprintf(w, "forget: %d unrepaired mismatches, %d under-replicated | repair: %d copies over %d RPCs, %d under-replicated left, recall %.4f, %d mismatches\n",
		r.UnrepairedMismatches, r.UnderAfterCrash, r.CopiesRepaired, r.RepairRPCs, r.UnderAfterRepair, r.RecallAfterRepair, r.RepairedMismatches)
	fmt.Fprintf(w, "served %d coordinations, cache %d hits / %d misses | wire: %d msgs, %d payload bytes | pool: %d dials, %d reuses\n",
		r.SearchRPCs, r.CacheHits, r.CacheMisses, r.WireMessages, r.WireBytes, r.PoolDials, r.PoolReuses)
}
