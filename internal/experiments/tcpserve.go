package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the serving scenario: the engine the in-process
// experiments measure builds a cluster of hdknode OS processes over
// pooled TCP through the client fabric, and the scenario verifies —
// not assumes — that deployment changes nothing and that the daemons'
// own hdk.search coordinators serve it correctly, boundedly and
// observably. In order, against one cluster:
//
//  1. every daemon coordinates part of the query set to the
//     bit-identical answer the in-process and client-fabric engines
//     produce;
//  2. the repeat pass is served from the result caches with ZERO fetch
//     RPCs anywhere in the cluster;
//  3. traced coordinations match the coordinator's own SearchResult
//     and, level by level, the client-fabric engine searching from the
//     same member;
//  4. offered load past one coordinator's tiny worker pool and queue is
//     shed with retry-after hints, accepted answers stay bit-identical
//     with bounded p99, and one backoff cycle later nothing is shed;
//  5. the daemons' registry deltas over phases 1–4 equal the
//     client-observed fresh, cached, miss-eligible and shed responses
//     EXACTLY;
//  6. every /healthz answers "ok", every /metrics answers exposition
//     text carrying the build_info lines of the daemon's own
//     cluster.metrics snapshot, and every snapshot holds a coordination
//     histogram, the found-keys and local-fetches series and an idle
//     queue depth of 0;
//  7. an incremental update invalidates every cache and the next
//     coordinations match the updated reference;
//  8. with the cache off, coordinations and the client fabric keep
//     answering bit-identically after the owner of a probed key is
//     SIGKILLed (zero recall loss at R=3); once the dead member is
//     forgotten every survivor still coordinates bit-identically while
//     the cluster owes a repair, the audit sees the deficit, and a
//     repair sweep restores full R-way coverage.
//
// The CI cluster-e2e job runs this against 5 real child processes
// started with -search-workers 2 -search-queue 2 -http 127.0.0.1:0
// -slow-query 1ns (TestTCPServeE2E).

// TCPServeOpts parameterizes the scenario. The daemons must run a tiny
// -search-workers / -search-queue (the test uses 2 and 2) — the
// scenario cannot set them over the wire, and a cluster with roomy
// defaults never sheds, which the Rejected>0 gate turns into a loud
// failure.
type TCPServeOpts struct {
	ClusterOpts
	ExtraDocs int // staged after the build via AddDocuments, then indexed by a second BuildIndex
	Clients   int // concurrent closed-loop clients, all on addrs[0]
	PerClient int // accepted coordinations each client must complete
	// P99Bound caps the 99th-percentile latency of ACCEPTED load
	// requests (the successful attempt only — backoff sleeps excluded).
	// With shedding working, accepted latency is bounded by the tiny
	// queue, no matter how much load is offered.
	P99Bound time.Duration
}

// DefaultTCPServeOpts is the CI-gated configuration: a 5-process
// cluster at R=3 hammered by 16 concurrent clients on one coordinator,
// then an incremental update and one crash.
func DefaultTCPServeOpts() TCPServeOpts {
	return TCPServeOpts{
		ClusterOpts: DefaultClusterOpts(), ExtraDocs: 30,
		Clients: 16, PerClient: 12, P99Bound: 2 * time.Second,
	}
}

// Load client pacing: a shed request is retried with capped
// exponential backoff above the daemon's hint; a request still shed
// after satMaxAttempts fails the scenario (the daemon never recovered
// capacity).
const (
	satBackoffCap  = 200 * time.Millisecond
	satMaxAttempts = 100
)

// TCPServeReport is the scenario's measurement; Failures lists the
// gates it misses.
type TCPServeReport struct {
	Nodes    int
	Replicas int
	Docs     int
	Queries  int
	Clients  int

	// Phase 1, parity: the client-fabric engine and the coordinators vs
	// the in-process reference.
	ClientMismatches int
	CoordMismatches  int

	// Phase 2, result cache: the identical query set re-sent with
	// identical coordinator routing.
	RepeatCached     int    // responses flagged served-from-cache (want = Queries)
	RepeatMismatches int    // cached answers diverging from the originals
	RepeatFetchRPCs  uint64 // cluster-wide hdk.fetchBatch delta across the pass (want 0)

	// Phase 3, traces: NoCache coordinations vs the coordinator's own
	// SearchResult (rounds, RPCs, failovers) and vs the client-fabric
	// engine searching from the coordinating member (per-level span
	// rpcs attrs vs Traffic.FetchRPCsBySize deltas, answers).
	TracedQueries    int
	TraceMismatches  int // per-level RPC counts diverging from the engine, or trace totals from the result
	TraceSpanDefects int // missing root/admission/rank, or fetch spans not matching rpcs
	ResultMismatches int // traced answers diverging from the engine's

	// Phase 4, saturation: Clients x PerClient NoCache coordinations on
	// one daemon. Rejected counts the shed attempts the clients
	// absorbed (want > 0 — otherwise the load never saturated);
	// MissingHint the ones without a positive retry-after hint.
	Accepted         int
	Rejected         uint64
	MissingHint      int
	LoadMismatches   int // accepted answers diverging from the reference
	AcceptedP50Nanos int64
	AcceptedP99Nanos int64 // the successful attempt only
	P99BoundNanos    int64
	// MaxRetryAfterNanos is the largest hint any rejection carried —
	// the "one backoff cycle" the recovery pass waits before probing.
	MaxRetryAfterNanos int64
	RecoveryRejected   uint64 // serial recovery sweep requests still shed (want 0)
	RecoveryMismatches int

	// Phase 5, accounting: every hdk.search response the client saw over
	// phases 1–4 by kind, against the daemons' summed registry deltas
	// over exactly that window.
	FreshServed    uint64
	CachedServed   uint64
	MissEligible   uint64 // fresh responses to cache-eligible requests
	SearchRPCDelta uint64
	CacheHitDelta  uint64
	CacheMissDelta uint64
	ShedDelta      uint64

	// Phase 6, exposition across every daemon: values read from each
	// daemon's cluster.metrics snapshot, its HTTP endpoint checked
	// against that snapshot.
	HealthOK    int     // /healthz answering 200 "ok"
	ScrapeOK    int     // /metrics answering 200 exposition text that carries the snapshot's hdk_build_info lines
	BuildInfoOK int     // hdk_build_info 1 in the snapshot
	CoordCount  uint64  // summed coordination-histogram count
	CoordP99    float64 // worst daemon's coordination p99 (ns); must be > 0
	QueueDepth  float64 // summed hdk_search_queue_depth at idle; must be 0
	SlowLogged  uint64  // summed hdk_search_slow_total (daemons run -slow-query 1ns)
	// The series the absent-probe ratio and the local/remote batch split
	// are read from: how many daemons expose each (must be every one),
	// and their sums — found keys out of probes, local fetch batches out
	// of all fetch batches.
	FoundKeysExposed    int
	LocalFetchesExposed int
	ScrapedProbes       uint64 // hdk_query_probes_total
	ScrapedFoundKeys    uint64 // hdk_query_found_keys_total; must be in (0, ScrapedProbes]
	ScrapedFetchRPCs    uint64 // hdk_query_fetch_rpcs_total
	ScrapedLocalFetches uint64 // hdk_query_local_fetches_total; must be in (0, ScrapedFetchRPCs]

	// Phase 7, invalidation: after AddDocuments + a second BuildIndex.
	PostUpdateCached     int // responses still served from cache (want 0)
	PostUpdateMismatches int // coordinator vs the updated reference

	// Phase 8, failover: cache bypassed, one daemon SIGKILLed.
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

	// The survivors' serving counters after the run.
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
	// Trace ground truth: every traced coordination matches the engine.
	g.check(r.TracedQueries > 0, "no queries were traced")
	g.check(r.TraceMismatches == 0, "%d traced coordinations diverged from the engine's per-level RPC counters", r.TraceMismatches)
	g.check(r.TraceSpanDefects == 0, "%d span trees were structurally defective", r.TraceSpanDefects)
	g.check(r.ResultMismatches == 0, "%d traced answers diverged from the engine's", r.ResultMismatches)
	// Bounded serving.
	g.check(r.Rejected > 0, "no request was shed — the load never saturated the daemon (queue too roomy?)")
	g.check(r.MissingHint == 0, "%d rejections carried no positive retry-after hint", r.MissingHint)
	g.check(r.LoadMismatches == 0, "%d accepted answers diverged from the in-process reference", r.LoadMismatches)
	g.check(r.AcceptedP99Nanos <= r.P99BoundNanos, "accepted p99 %.3fms exceeds the %.0fms bound — admission is queueing, not shedding", float64(r.AcceptedP99Nanos)/1e6, float64(r.P99BoundNanos)/1e6)
	g.check(r.RecoveryRejected == 0, "%d recovery requests still shed one backoff cycle after the load stopped", r.RecoveryRejected)
	g.check(r.RecoveryMismatches == 0, "%d recovery answers diverged from the reference", r.RecoveryMismatches)
	// Exact counter parity: the registry agrees with the client.
	overloads := r.Rejected + r.RecoveryRejected
	served := r.FreshServed + r.CachedServed + overloads
	g.check(r.SearchRPCDelta == served, "search RPC delta %d, want %d (fresh %d + cached %d + shed %d)", r.SearchRPCDelta, served, r.FreshServed, r.CachedServed, overloads)
	g.check(r.CacheHitDelta == r.CachedServed, "cache hit delta %d, client saw %d cached responses", r.CacheHitDelta, r.CachedServed)
	g.check(r.CacheMissDelta == r.MissEligible, "cache miss delta %d, client sent %d miss-eligible requests", r.CacheMissDelta, r.MissEligible)
	g.check(r.ShedDelta == overloads, "shed delta %d, client observed %d overloads", r.ShedDelta, overloads)
	// Exposition gates.
	g.check(r.HealthOK == r.Nodes && r.ScrapeOK == r.Nodes && r.BuildInfoOK == r.Nodes, "scrape: %d/%d healthz, %d/%d metrics, %d/%d build_info", r.HealthOK, r.Nodes, r.ScrapeOK, r.Nodes, r.BuildInfoOK, r.Nodes)
	g.check(r.CoordCount > 0 && r.CoordP99 > 0, "coordination histogram empty in the scrapes: count %d, p99 %.0f", r.CoordCount, r.CoordP99)
	g.check(r.QueueDepth == 0, "idle queue depth %.0f, want 0", r.QueueDepth)
	g.check(r.SlowLogged > 0, "hdk_search_slow_total is 0 with -slow-query 1ns")
	g.check(r.FoundKeysExposed == r.Nodes && r.LocalFetchesExposed == r.Nodes, "found-keys series on %d/%d daemons, local-fetches series on %d/%d", r.FoundKeysExposed, r.Nodes, r.LocalFetchesExposed, r.Nodes)
	g.check(r.ScrapedFoundKeys > 0 && r.ScrapedFoundKeys <= r.ScrapedProbes, "hdk_query_found_keys_total %d against hdk_query_probes_total %d", r.ScrapedFoundKeys, r.ScrapedProbes)
	g.check(r.ScrapedLocalFetches > 0 && r.ScrapedLocalFetches <= r.ScrapedFetchRPCs, "hdk_query_local_fetches_total %d against hdk_query_fetch_rpcs_total %d", r.ScrapedLocalFetches, r.ScrapedFetchRPCs)
	// Invalidation, failover, forget and repair.
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
// are the daemon addresses and httpAddrs their observability endpoints
// (both in start order), crash kills the process behind addrs[i]
// (cluster.Harness.Kill for real processes). The given transport
// carries all client traffic; pass a *transport.TCP to get pool
// counters in the report.
func TCPServe(tr transport.Transport, addrs, httpAddrs []string, crash func(i int) error,
	opts TCPServeOpts, progress Progress) (*TCPServeReport, error) {
	if len(httpAddrs) != len(addrs) {
		return nil, fmt.Errorf("experiments: %d rpc / %d http addresses", len(addrs), len(httpAddrs))
	}
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
		Docs: f.col.M(), Queries: len(queries), Clients: opts.Clients,
		P99BoundNanos: int64(opts.P99Bound),
	}

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
	for _, req := range f.requests(false) {
		if origin = c.CoordinatorReading(req.Terms, opts.Replicas, victim.Addr()); origin != nil {
			break
		}
	}
	if origin == nil {
		return nil, fmt.Errorf("experiments: no surviving member's read plan names %s — the query set cannot exercise failover", victim.Addr())
	}

	// The accounting window opens after the build: every response the
	// client observes from here through phase 4 must be mirrored
	// exactly by the registry deltas read at its end.
	before, err := f.counters()
	if err != nil {
		return nil, err
	}

	// Phase 1: parity — the client-fabric engine, and a coordination by
	// the daemon addrs[i % Nodes] so every daemon coordinates part of
	// the set.
	for i, q := range queries {
		viaFabric, err := eng.Search(q, origin, opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("fabric query %d: %w", i, err)
		}
		if !reflect.DeepEqual(f.want[i], viaFabric.Results) {
			rep.ClientMismatches++
		}
	}
	mismatches, cached, err := f.rotate(f.want)
	if err != nil {
		return nil, fmt.Errorf("coordinated: %w", err)
	}
	if cached > 0 {
		return nil, fmt.Errorf("experiments: %d coordinated queries cached on a fresh cluster", cached)
	}
	rep.CoordMismatches = mismatches
	rep.FreshServed += uint64(len(queries))
	rep.MissEligible += uint64(len(queries))
	f.progress("tcpserve: parity %d/%d fabric, %d/%d coordinated",
		len(queries)-rep.ClientMismatches, len(queries), len(queries)-rep.CoordMismatches, len(queries))

	// Phase 2: the repeat pass must be answered entirely from the
	// coordinators' result caches — zero fetch RPCs cluster-wide.
	cold, err := f.counters()
	if err != nil {
		return nil, err
	}
	if rep.RepeatMismatches, rep.RepeatCached, err = f.rotate(f.want); err != nil {
		return nil, fmt.Errorf("repeat: %w", err)
	}
	after, err := f.counters()
	if err != nil {
		return nil, err
	}
	rep.RepeatFetchRPCs = after.fetchRPCs - cold.fetchRPCs
	rep.CachedServed += uint64(rep.RepeatCached)
	rep.FreshServed += uint64(len(queries) - rep.RepeatCached)
	rep.MissEligible += uint64(len(queries) - rep.RepeatCached)
	f.progress("tcpserve: repeat pass %d/%d cached, %d fetch RPCs", rep.RepeatCached, len(queries), rep.RepeatFetchRPCs)

	// Phase 3: every query re-run traced with the cache off, each checked
	// against the client-fabric engine's deterministic per-level
	// counters: the engine runs the identical traversal over the
	// identical membership from the coordinating daemon's own member
	// (which replica a key is read from — and so how a level's keys
	// group into batches — depends on who coordinates, core.ReadPlan),
	// so its per-level fetch-RPC deltas are the exact ground truth for
	// the trace's level spans.
	origins := make(map[string]overlay.Member, opts.Nodes)
	for _, m := range c.Members() {
		origins[m.Addr()] = m
	}
	for i, req := range f.requests(true) {
		coord := addrs[i%len(addrs)]
		res, trace, err := c.SearchTraceVia(coord, req)
		if err != nil {
			return nil, fmt.Errorf("traced query %d: %w", i, err)
		}
		rep.FreshServed++
		rep.TracedQueries++
		if trace == nil {
			rep.TraceSpanDefects++
			continue
		}
		tb := eng.Traffic().Snapshot()
		want, err := eng.Search(queries[i], origins[coord], opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		ta := eng.Traffic().Snapshot()
		if !reflect.DeepEqual(want.Results, res.Results) {
			rep.ResultMismatches++
		}
		rep.TraceMismatches += traceLevelMismatches(trace, tb, ta) + traceResultMismatches(trace, res)
		rep.TraceSpanDefects += traceShapeDefects(trace)
	}
	f.progress("tcpserve: %d traced coordinations, %d level mismatches, %d shape defects",
		rep.TracedQueries, rep.TraceMismatches, rep.TraceSpanDefects)

	// Phase 4: saturation load on addrs[0], then its recovery pass.
	if err := saturate(f, addrs[0], opts, rep); err != nil {
		return nil, err
	}

	// Phase 5: close the accounting window.
	if after, err = f.counters(); err != nil {
		return nil, err
	}
	rep.SearchRPCDelta = after.searchRPCs - before.searchRPCs
	rep.CacheHitDelta = after.hits - before.hits
	rep.CacheMissDelta = after.misses - before.misses
	rep.ShedDelta = after.shed - before.shed

	// Phase 6: scrape every daemon's HTTP endpoint.
	scrapeCluster(tr, addrs, httpAddrs, rep)
	f.progress("tcpserve: scraped %d/%d endpoints, coordination p99 %.2fms over %d, %d slow-logged",
		rep.ScrapeOK, opts.Nodes, rep.CoordP99/1e6, rep.CoordCount, rep.SlowLogged)

	// Phase 7: stage the extra documents on BOTH engines, update, and
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
	if err := eng.BuildIndex(); err != nil {
		return nil, fmt.Errorf("cluster update: %w", err)
	}
	if err := f.ref.BuildIndex(); err != nil {
		return nil, fmt.Errorf("reference update: %w", err)
	}
	updated, err := f.answers()
	if err != nil {
		return nil, err
	}
	if rep.PostUpdateMismatches, rep.PostUpdateCached, err = f.rotate(updated); err != nil {
		return nil, fmt.Errorf("post-update: %w", err)
	}
	f.progress("tcpserve: post-update %d stale-cached, %d/%d parity",
		rep.PostUpdateCached, len(queries)-rep.PostUpdateMismatches, len(queries))

	// Phase 8: crash the victim — the client is NOT told — and
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
	for i, req := range f.requests(true) {
		coord := survivors[i%len(survivors)]
		if m := c.CoordinatorReading(req.Terms, opts.Replicas, victim.Addr()); m != nil {
			coord = m.Addr()
		}
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

	// The client fabric meets the same crash through dead fetches and
	// must fail over to the replicas too.
	if rep.RecallAfterCrash, rep.FailoversPerQuery, err = availabilityRecall(eng, queries, updated, origin, opts.TopK); err != nil {
		return nil, fmt.Errorf("post-crash fabric query: %w", err)
	}

	// Remove the dead member — from the engine's view AND from the
	// daemons' bootstrap membership, so clients connecting later do not
	// rediscover the dead address.
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
	// report its view unrepaired, read primary-first until the sweep
	// reports in, and so still coordinate every query bit-identically.
	unrepaired, err := f.unrepaired()
	if err != nil {
		return nil, err
	}
	if unrepaired != len(survivors) {
		return nil, fmt.Errorf("experiments: %d/%d survivors report an unrepaired view after the forget", unrepaired, len(survivors))
	}
	if rep.UnrepairedMismatches, err = f.sweep(updated); err != nil {
		return nil, fmt.Errorf("forgotten, unrepaired: %w", err)
	}

	// Audit and repair through the ENGINE's own methods: its inventory
	// reaches the daemon-hosted stores over the index RPCs, so the call
	// an in-process deployment uses restores coverage here too. The
	// sweep tells the daemons, and they place reads again.
	if rep.UnderAfterCrash, err = underReplicated(eng.AuditReplicas()); err != nil {
		return nil, fmt.Errorf("audit: %w", err)
	}
	rstats, err := eng.RepairReplicas()
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.CopiesRepaired, rep.RepairRPCs = rstats.CopiesSent, rstats.RepairRPCs
	if rep.UnderAfterRepair, err = underReplicated(eng.AuditReplicas()); err != nil {
		return nil, fmt.Errorf("post-repair audit: %w", err)
	}
	if rep.RecallAfterRepair, _, err = availabilityRecall(eng, queries, updated, origin, opts.TopK); err != nil {
		return nil, fmt.Errorf("post-repair query: %w", err)
	}
	if rep.RepairedMismatches, err = f.sweep(updated); err != nil {
		return nil, fmt.Errorf("repaired: %w", err)
	}
	f.progress("tcpserve: fabric recall %.4f after crash (%.2f failovers/query), %.4f after repair (%d copies shipped, %d under-replicated left)",
		rep.RecallAfterCrash, rep.FailoversPerQuery, rep.RecallAfterRepair, rep.CopiesRepaired, rep.UnderAfterRepair)

	// The survivors' serving counters and the client's pool.
	if unrepaired, err = f.unrepaired(); err != nil {
		return nil, err
	}
	if unrepaired != 0 {
		return nil, fmt.Errorf("experiments: %d survivors still report an unrepaired view after the repair", unrepaired)
	}
	if after, err = f.counters(); err != nil {
		return nil, err
	}
	rep.SearchRPCs, rep.CacheHits, rep.CacheMisses = after.searchRPCs, after.hits, after.misses
	st := tr.Stats()
	rep.WireMessages, rep.WireBytes = st.Messages, st.Bytes
	if tcp, ok := tr.(*transport.TCP); ok {
		ps := tcp.PoolStats()
		rep.PoolDials, rep.PoolReuses = ps.Dials, ps.Reuses
	}
	return rep, nil
}

// loadClient is one closed-loop load client's tally, merged after the
// run.
type loadClient struct {
	latencies   []int64
	rejected    uint64
	missingHint int
	mismatches  int
	maxHint     time.Duration
	err         error
}

// saturate is phase 4. Every client hammers the coordinator at target
// back to back with NoCache requests (a cache hit would bypass
// admission), far past its worker+queue capacity. Shed attempts are
// retried with capped exponential backoff above the daemon's hint
// (full jitter, so the herd spreads out); the recorded latency is the
// successful attempt alone. One backoff cycle after the load stops,
// the same coordinator must accept a serial sweep of the full query set
// without shedding a single request.
func saturate(f *fixture, target string, opts TCPServeOpts, rep *TCPServeReport) error {
	reqs := f.requests(true)
	f.progress("tcpserve: %d clients x %d coordinations against %s", opts.Clients, opts.PerClient, target)
	tallies := make([]loadClient, opts.Clients)
	var wg sync.WaitGroup
	for w := range tallies {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &tallies[w]
			for j := 0; j < opts.PerClient; j++ {
				qi := (w + j) % len(reqs)
				for attempt := 1; ; attempt++ {
					t0 := time.Now()
					res, _, err := f.c.TrySearchVia(target, reqs[qi])
					if err == nil {
						st.latencies = append(st.latencies, time.Since(t0).Nanoseconds())
						if !reflect.DeepEqual(f.want[qi], res.Results) {
							st.mismatches++
						}
						break
					}
					var ov *core.OverloadError
					if !errors.As(err, &ov) {
						st.err = fmt.Errorf("client %d request %d: %w", w, j, err)
						return
					}
					st.rejected++
					if ov.RetryAfter <= 0 {
						st.missingHint++
					}
					st.maxHint = max(st.maxHint, ov.RetryAfter)
					if attempt >= satMaxAttempts {
						st.err = fmt.Errorf("client %d request %d: still shed after %d attempts", w, j, attempt)
						return
					}
					hi := min(ov.RetryAfter<<min(attempt, 4), satBackoffCap)
					sleep := ov.RetryAfter
					if spread := int64(hi - ov.RetryAfter); spread > 0 {
						sleep += time.Duration(rand.Int64N(spread + 1))
					}
					time.Sleep(sleep)
				}
			}
		}(w)
	}
	wg.Wait()

	var latencies []int64
	var maxHint time.Duration
	for i := range tallies {
		st := &tallies[i]
		if st.err != nil {
			return st.err
		}
		latencies = append(latencies, st.latencies...)
		rep.Rejected += st.rejected
		rep.MissingHint += st.missingHint
		rep.LoadMismatches += st.mismatches
		maxHint = max(maxHint, st.maxHint)
	}
	rep.Accepted = len(latencies)
	rep.FreshServed += uint64(rep.Accepted)
	rep.MaxRetryAfterNanos = int64(maxHint)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		rep.AcceptedP50Nanos = latencies[n/2]
		rep.AcceptedP99Nanos = latencies[n*99/100]
	}
	f.progress("tcpserve: %d accepted (p99 %.3fms), %d shed (max hint %v)",
		rep.Accepted, float64(rep.AcceptedP99Nanos)/1e6, rep.Rejected, maxHint)

	time.Sleep(maxHint)
	for i, req := range reqs {
		res, _, err := f.c.TrySearchVia(target, req)
		if errors.Is(err, core.ErrOverloaded) {
			rep.RecoveryRejected++
			continue
		}
		if err != nil {
			return fmt.Errorf("recovery query %d: %w", i, err)
		}
		rep.FreshServed++
		if !reflect.DeepEqual(f.want[i], res.Results) {
			rep.RecoveryMismatches++
		}
	}
	f.progress("tcpserve: recovery %d rejected, %d mismatches", rep.RecoveryRejected, rep.RecoveryMismatches)
	return nil
}

// traceLevelMismatches compares a trace's level spans against the
// engine's per-level fetch-RPC deltas across the reference run.
func traceLevelMismatches(trace *telemetry.Trace, before, after core.TrafficSnapshot) int {
	got := make(map[int]uint64)
	for _, id := range trace.Find("level") {
		sp := &trace.Spans[id]
		size, err1 := strconv.Atoi(sp.Attr("level"))
		rpcs, err2 := strconv.ParseUint(sp.Attr("rpcs"), 10, 64)
		if err1 != nil || err2 != nil {
			return 1 // malformed attrs: count as one mismatch
		}
		got[size] += rpcs
	}
	mismatches := 0
	for size := 1; size < len(after.FetchRPCsBySize); size++ {
		if got[size] != after.FetchRPCsBySize[size]-before.FetchRPCsBySize[size] {
			mismatches++
		}
	}
	return mismatches
}

// traceResultMismatches compares a trace against the SearchResult the
// same coordination returned: one level span per round, and the level
// spans' rpcs and failovers attributes and the fetch spans themselves
// summing to the result's own counters.
func traceResultMismatches(trace *telemetry.Trace, res *core.SearchResult) int {
	levels := trace.Find("level")
	var rpcs, failovers uint64
	for _, id := range levels {
		r, err1 := strconv.ParseUint(trace.Spans[id].Attr("rpcs"), 10, 64)
		f, err2 := strconv.ParseUint(trace.Spans[id].Attr("failovers"), 10, 64)
		if err1 != nil || err2 != nil {
			return 1
		}
		rpcs += r
		failovers += f
	}
	mismatches := 0
	if len(levels) != res.Rounds {
		mismatches++
	}
	if rpcs != uint64(res.RPCs) || len(trace.Find("fetch")) != res.RPCs {
		mismatches++
	}
	if failovers != uint64(res.Failovers) {
		mismatches++
	}
	return mismatches
}

// traceShapeDefects checks the span tree's structure: a "coordinate"
// root, exactly one admission and one rank span, and per level exactly
// as many fetch child spans as the level's rpcs attribute claims (one
// span per owner batch, failover waves included).
func traceShapeDefects(trace *telemetry.Trace) int {
	defects := 0
	if len(trace.Spans) == 0 || trace.Spans[0].Name != "coordinate" {
		return 1
	}
	if len(trace.Find("admission")) != 1 {
		defects++
	}
	if len(trace.Find("rank")) != 1 {
		defects++
	}
	for _, id := range trace.Find("level") {
		rpcs, err := strconv.ParseUint(trace.Spans[id].Attr("rpcs"), 10, 64)
		if err != nil {
			defects++
			continue
		}
		fetches := 0
		for _, f := range trace.Find("fetch") {
			if trace.Spans[f].Parent == id {
				fetches++
			}
		}
		if uint64(fetches) != rpcs {
			defects++
		}
	}
	return defects
}

// expositionContentType is the Content-Type hdknode's /metrics answers
// with: the Prometheus text exposition format, version 0.0.4.
const expositionContentType = "text/plain; version=0.0.4; charset=utf-8"

// scrapeCluster reads every daemon's exposition values from its
// cluster.metrics snapshot and checks its HTTP endpoint against that
// same daemon: /healthz must answer 200 "ok", and /metrics must answer
// 200 with the exposition content type and a body carrying the
// hdk_build_info lines WritePrometheus renders from the snapshot. A
// daemon failing a check just leaves the per-node OK counters short of
// Nodes, failing the gate.
func scrapeCluster(tr transport.Transport, addrs, httpAddrs []string, rep *TCPServeReport) {
	client := &http.Client{Timeout: 10 * time.Second}
	get := func(url string) (string, string, bool) {
		resp, err := client.Get(url)
		if err != nil {
			return "", "", false
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		return string(body), resp.Header.Get("Content-Type"), err == nil && resp.StatusCode == http.StatusOK
	}
	for i, addr := range httpAddrs {
		if body, _, ok := get("http://" + addr + "/healthz"); ok && strings.TrimSpace(body) == "ok" {
			rep.HealthOK++
		}
		snap, err := cluster.FetchMetrics(tr, addrs[i])
		if err != nil {
			continue
		}
		var buildInfo telemetry.Snapshot
		for _, g := range snap.Gauges {
			if g.Name == "hdk_build_info" && g.Value == 1 {
				buildInfo.Gauges = append(buildInfo.Gauges, g)
			}
		}
		if len(buildInfo.Gauges) > 0 {
			rep.BuildInfoOK++
			var want strings.Builder
			buildInfo.WritePrometheus(&want)
			if body, ctype, ok := get("http://" + addr + "/metrics"); ok && ctype == expositionContentType && strings.Contains(body, want.String()) {
				rep.ScrapeOK++
			}
		}
		depth, _ := snap.Gauge("hdk_search_queue_depth")
		rep.QueueDepth += depth
		rep.SlowLogged += snap.CounterSum("hdk_search_slow_total")
		rep.ScrapedProbes += snap.CounterSum("hdk_query_probes_total")
		rep.ScrapedFoundKeys += snap.CounterSum("hdk_query_found_keys_total")
		rep.ScrapedFetchRPCs += snap.CounterSum("hdk_query_fetch_rpcs_total")
		rep.ScrapedLocalFetches += snap.CounterSum("hdk_query_local_fetches_total")
		if _, ok := snap.Counter("hdk_query_found_keys_total", telemetry.L("level", "1")); ok {
			rep.FoundKeysExposed++
		}
		if _, ok := snap.Counter("hdk_query_local_fetches_total"); ok {
			rep.LocalFetchesExposed++
		}
		coord, _ := snap.Histogram(metricCoordination)
		rep.CoordCount += coord.Count
		rep.CoordP99 = max(rep.CoordP99, float64(coord.Quantile(0.99)))
	}
}

// Fprint renders the scenario report.
func (r *TCPServeReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "TCP serve — %d hdknode coordinators, R=%d, %d docs, %d queries, %d load clients\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries, r.Clients)
	fmt.Fprintf(w, "parity: %d fabric / %d coordinated mismatches vs in-process engine | repeat %d/%d cached (%d mismatches, %d fetch RPCs)\n",
		r.ClientMismatches, r.CoordMismatches, r.RepeatCached, r.Queries, r.RepeatMismatches, r.RepeatFetchRPCs)
	fmt.Fprintf(w, "traces: %d coordinations, %d level mismatches, %d shape defects, %d result mismatches\n",
		r.TracedQueries, r.TraceMismatches, r.TraceSpanDefects, r.ResultMismatches)
	fmt.Fprintf(w, "load: accepted %d, p50 %.3fms, p99 %.3fms (bound %.0fms) | shed %d (%d without hint, max hint %.0fms) | %d mismatches | recovery %d rejected, %d mismatches\n",
		r.Accepted, float64(r.AcceptedP50Nanos)/1e6, float64(r.AcceptedP99Nanos)/1e6, float64(r.P99BoundNanos)/1e6,
		r.Rejected, r.MissingHint, float64(r.MaxRetryAfterNanos)/1e6, r.LoadMismatches, r.RecoveryRejected, r.RecoveryMismatches)
	fmt.Fprintf(w, "counter parity: search %d vs %d served | hits %d vs %d | misses %d vs %d | shed %d vs %d\n",
		r.SearchRPCDelta, r.FreshServed+r.CachedServed+r.Rejected+r.RecoveryRejected,
		r.CacheHitDelta, r.CachedServed, r.CacheMissDelta, r.MissEligible,
		r.ShedDelta, r.Rejected+r.RecoveryRejected)
	fmt.Fprintf(w, "scrape: %d/%d healthz, %d/%d metrics, %d/%d build_info | coord p99 %.2fms over %d | queue %.0f | %d slow-logged\n",
		r.HealthOK, r.Nodes, r.ScrapeOK, r.Nodes, r.BuildInfoOK, r.Nodes,
		r.CoordP99/1e6, r.CoordCount, r.QueueDepth, r.SlowLogged)
	fmt.Fprintf(w, "coordinator series: exposed by %d/%d and %d/%d daemons | %d/%d probes found a key | %d/%d fetch batches served by the coordinator's own store\n",
		r.FoundKeysExposed, r.Nodes, r.LocalFetchesExposed, r.Nodes,
		r.ScrapedFoundKeys, r.ScrapedProbes, r.ScrapedLocalFetches, r.ScrapedFetchRPCs)
	fmt.Fprintf(w, "update: %d stale-cached, %d mismatches | failover: %d mismatches, %d re-sent batches | fabric recall %.4f (%.2f failovers/query)\n",
		r.PostUpdateCached, r.PostUpdateMismatches, r.FailoverMismatches, r.FailoverBatches, r.RecallAfterCrash, r.FailoversPerQuery)
	fmt.Fprintf(w, "forget: %d unrepaired mismatches, %d under-replicated | repair: %d copies over %d RPCs, %d under-replicated left, recall %.4f, %d mismatches\n",
		r.UnrepairedMismatches, r.UnderAfterCrash, r.CopiesRepaired, r.RepairRPCs, r.UnderAfterRepair, r.RecallAfterRepair, r.RepairedMismatches)
	fmt.Fprintf(w, "served %d coordinations, cache %d hits / %d misses | wire: %d msgs, %d payload bytes | pool: %d dials, %d reuses\n",
		r.SearchRPCs, r.CacheHits, r.CacheMisses, r.WireMessages, r.WireBytes, r.PoolDials, r.PoolReuses)
}
