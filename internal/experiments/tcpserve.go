package experiments

import (
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file is the serving scenario: the engine builds a cluster of
// hdknode processes through the client fabric, and the daemons' own
// hdk.search coordinators must serve it correctly and observably. Its
// schedule is wave, SIGKILL, forget, repair, with passes between: before
// the wave, parity, a repeat pass from the result caches, traced
// coordinations, exact counter accounting and every daemon's HTTP
// surface; then cache invalidation, failover with zero recall loss at
// R=3, parity while a repair is owed, and full coverage after it.
// Admission (bounded queue, shedding with a retry-after hint) is proven
// by construction in the cluster package's admission tests, not here.

// serveWaveDocs is the size of the scenario's one update wave.
const serveWaveDocs = 30

// TCPServeReport is the scenario's measurement; Failures lists the
// gates it misses.
type TCPServeReport struct {
	Nodes    int
	Replicas int
	Docs     int
	Queries  int

	// Parity of the client-fabric engine and the coordinators.
	ClientMismatches int
	CoordMismatches  int

	// The repeat pass, with identical coordinator routing.
	RepeatCached     int    // responses served from cache (want = Queries)
	RepeatMismatches int    // cached answers diverging from the originals
	RepeatFetchRPCs  uint64 // cluster-wide hdk.fetchBatch delta (want 0)

	// Traced NoCache coordinations (traceFaults).
	TracedQueries    int
	TraceMismatches  int
	TraceSpanDefects int
	ResultMismatches int // traced answers diverging from the engine's

	// Accounting: every hdk.search response the client saw before the
	// wave, by kind, against the daemons' summed registry deltas over
	// exactly that window.
	FreshServed    uint64
	CachedServed   uint64
	MissEligible   uint64 // fresh responses to cache-eligible requests
	SearchRPCDelta uint64
	CacheHitDelta  uint64
	CacheMissDelta uint64
	ShedDelta      uint64

	// Exposition: per daemon /healthz, /metrics against the daemon's own
	// snapshot, and the snapshot's coordination (worst p99), queue,
	// slow-query, found-keys and local-fetches series.
	HealthOK            int
	ScrapeOK            int
	BuildInfoOK         int
	CoordCount          uint64
	CoordP99            float64
	QueueDepth          float64
	SlowLogged          uint64
	FoundKeysExposed    int
	LocalFetchesExposed int
	ScrapedProbes       uint64
	ScrapedFoundKeys    uint64
	ScrapedFetchRPCs    uint64
	ScrapedLocalFetches uint64

	// After the wave: stale cache hits and parity.
	PostUpdateCached     int
	PostUpdateMismatches int

	// After the SIGKILL: the survivors' coordinations and the failover
	// batches they re-sent (want > 0); the client fabric's recall@TopK
	// (want 1) and failovers.
	FailoverMismatches int
	FailoverBatches    int
	RecallAfterCrash   float64
	FailoversPerQuery  float64
	// After the forget and after the repair sweep: every survivor
	// coordinating every query (want 0 each), and the audits.
	UnrepairedMismatches int
	RepairedMismatches   int
	UnderAfterCrash      int // want > 0
	CopiesRepaired       int
	RepairRPCs           int
	UnderAfterRepair     int // want 0
	RecallAfterRepair    float64

	// The survivors' serving counters, and the cost of real sockets.
	SearchRPCs   uint64
	CacheHits    uint64
	CacheMisses  uint64
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
	// Exact counter parity: the registry agrees with the client.
	served := r.FreshServed + r.CachedServed
	g.check(r.SearchRPCDelta == served, "search RPC delta %d, want %d (fresh %d + cached %d)", r.SearchRPCDelta, served, r.FreshServed, r.CachedServed)
	g.check(r.CacheHitDelta == r.CachedServed, "cache hit delta %d, client saw %d cached responses", r.CacheHitDelta, r.CachedServed)
	g.check(r.CacheMissDelta == r.MissEligible, "cache miss delta %d, client sent %d miss-eligible requests", r.CacheMissDelta, r.MissEligible)
	g.check(r.ShedDelta == 0, "shed delta %d, the client observed no overload", r.ShedDelta)
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
// (both in start order), crash kills the process behind addrs[i], and
// opts is the fleet's shape (the CI gate runs DefaultClusterOpts). Every
// pass is serial, so nothing may be shed: the accounting window expects
// zero overloads. Pass a *transport.TCP to get pool and wire counters in
// the report: it records onto the scenario's registry from the call on.
func TCPServe(tr transport.Transport, addrs, httpAddrs []string, crash func(i int) error,
	opts ClusterOpts, progress Progress) (*TCPServeReport, error) {
	if len(httpAddrs) != len(addrs) {
		return nil, fmt.Errorf("experiments: %d rpc / %d http addresses", len(addrs), len(httpAddrs))
	}
	// The pool and wire counters are the scenario's own: a TCP transport
	// records onto this registry from here on.
	poolReg := telemetry.NewRegistry()
	if tcp, ok := tr.(*transport.TCP); ok {
		tcp.Instrument(poolReg)
	}
	f, err := newFixture(fleet{tr: tr, addrs: addrs, kill: crash}, "tcpserve", opts, 1, serveWaveDocs, progress)
	if err != nil {
		return nil, err
	}
	if err := f.build(); err != nil {
		return nil, err
	}
	rep := &TCPServeReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: f.col.M(), Queries: len(f.queries),
	}

	// The victim owns the first query's first term. A coordinator reads
	// its own copy first and covers the rest with the fewest other
	// members (core.ReadPlan), so owning a key is not yet being read for
	// it: the client fabric searches from, and after the crash each query
	// is coordinated by, a survivor whose first-level plan reads from the
	// victim when one exists — failover by construction, not coin flip.
	victimIdx := f.probedOwner()
	reading := func(req core.SearchRequest) overlay.Member {
		return f.c.CoordinatorReading(req.Terms, opts.Replicas, addrs[victimIdx])
	}
	var origin overlay.Member
	for _, req := range f.requests(false) {
		if origin = reading(req); origin != nil {
			break
		}
	}
	if origin == nil {
		return nil, fmt.Errorf("experiments: no surviving member's read plan names %s — the query set cannot exercise failover", addrs[victimIdx])
	}
	survivors := append(append([]string(nil), addrs[:victimIdx]...), addrs[victimIdx+1:]...)
	viaSurvivor := func(i int, req core.SearchRequest) string {
		if m := reading(req); m != nil {
			return m.Addr()
		}
		return survivors[i%len(survivors)]
	}

	passes := []func() error{
		func() error { return f.serve(httpAddrs, origin, rep) },
		func() (err error) {
			rep.PostUpdateMismatches, rep.PostUpdateCached, _, err = f.pass(false, f.want[1], f.rotating)
			return err
		},
		// The client is not told of the crash.
		func() (err error) {
			if rep.FailoverMismatches, _, rep.FailoverBatches, err = f.pass(true, f.want[1], viaSurvivor); err != nil {
				return err
			}
			rep.RecallAfterCrash, rep.FailoversPerQuery, err = availabilityRecall(f.eng, f.queries, f.want[1], origin, opts.TopK)
			return err
		},
		// Forgotten, not yet repaired: the replica sets name members the
		// crash promoted, which hold no copy, so every survivor must report
		// its view unrepaired and read primary-first until the sweep.
		func() (err error) {
			if fresh, err := cluster.MembersOf(tr, survivors[0]); err != nil || len(fresh) != len(survivors) {
				return fmt.Errorf("post-forget discovery via %s: %d members (err %v), want %d",
					survivors[0], len(fresh), err, len(survivors))
			}
			if err := f.expectUnrepaired(len(survivors)); err != nil {
				return err
			}
			if rep.UnrepairedMismatches, err = f.sweep(f.want[1]); err != nil {
				return err
			}
			rep.UnderAfterCrash, err = underReplicated(f.c.Audit(opts.Replicas))
			return err
		},
		// Repaired: the sweep told the daemons, and they place reads again.
		func() (err error) {
			rep.CopiesRepaired, rep.RepairRPCs = f.repaired.CopiesSent, f.repaired.RepairRPCs
			if rep.UnderAfterRepair, err = underReplicated(f.c.Audit(opts.Replicas)); err != nil {
				return err
			}
			if rep.RecallAfterRepair, _, err = availabilityRecall(f.eng, f.queries, f.want[1], origin, opts.TopK); err != nil {
				return err
			}
			if rep.RepairedMismatches, err = f.sweep(f.want[1]); err != nil {
				return err
			}
			after := f.snapshot()
			rep.SearchRPCs = sum(after, "hdk_search_rpcs_total")
			rep.CacheHits = sum(after, "hdk_search_cache_hits_total")
			rep.CacheMisses = sum(after, "hdk_search_cache_misses_total")
			return f.expectUnrepaired(0)
		},
	}
	if err := drive(serveSchedule(opts.Nodes, victimIdx), opts.Nodes, f.fire, time.Sleep, func(p int) error { return passes[p]() }); err != nil {
		return nil, err
	}
	pool := poolReg.Snapshot()
	calls, _ := pool.Histogram("hdk_transport_call_nanoseconds")
	rep.WireMessages = calls.Count
	rep.WireBytes = pool.CounterSum("hdk_transport_request_bytes_total") + pool.CounterSum("hdk_transport_response_bytes_total")
	rep.PoolDials = pool.CounterSum("hdk_transport_dials_total")
	rep.PoolReuses = pool.CounterSum("hdk_transport_pool_reuses_total")
	return rep, nil
}

// serve runs the passes before the wave inside one accounting window:
// every response the client observes must be mirrored exactly by the
// registry deltas read at its end. Then it scrapes every daemon.
func (f *fixture) serve(httpAddrs []string, origin overlay.Member, rep *TCPServeReport) error {
	n := uint64(len(f.queries))
	before := f.snapshot()
	for i, q := range f.queries {
		viaFabric, err := f.eng.Search(q, origin, f.TopK)
		if err != nil {
			return fmt.Errorf("fabric query %d: %w", i, err)
		}
		if !reflect.DeepEqual(f.want[0][i], viaFabric.Results) {
			rep.ClientMismatches++
		}
	}
	var cached int
	var err error
	if rep.CoordMismatches, cached, _, err = f.pass(false, f.want[0], f.rotating); err != nil {
		return err
	}
	if cached > 0 {
		return fmt.Errorf("experiments: %d coordinated queries cached on a fresh cluster", cached)
	}

	// The repeat pass must be answered entirely from the coordinators'
	// result caches — zero fetch RPCs cluster-wide.
	cold := sum(f.snapshot(), "hdk_fetch_rpcs_total")
	if rep.RepeatMismatches, rep.RepeatCached, _, err = f.pass(false, f.want[0], f.rotating); err != nil {
		return err
	}
	rep.RepeatFetchRPCs = sum(f.snapshot(), "hdk_fetch_rpcs_total") - cold
	rep.CachedServed += uint64(rep.RepeatCached)
	rep.FreshServed += 2*n - uint64(rep.RepeatCached)
	rep.MissEligible += 2*n - uint64(rep.RepeatCached)

	// Traced, cache off, each against the client-fabric engine running
	// the identical traversal from the coordinating daemon's own member
	// (who coordinates decides which replica a key is read from, and so
	// how a level's keys batch): its per-level fetch-RPC deltas are the
	// exact ground truth for the trace's level spans.
	for i, req := range f.requests(true) {
		coord := f.rotating(i, req)
		res, trace, err := f.c.SearchTraceVia(coord, req)
		if err != nil {
			return fmt.Errorf("traced query %d: %w", i, err)
		}
		rep.FreshServed++
		rep.TracedQueries++
		m, _ := f.c.View().Member(coord)
		before := f.eng.Metrics().Snapshot()
		want, err := f.eng.Search(f.queries[i], m, f.TopK)
		if err != nil {
			return fmt.Errorf("reference query %d: %w", i, err)
		}
		if !reflect.DeepEqual(want.Results, res.Results) {
			rep.ResultMismatches++
		}
		mism, defects := traceFaults(trace, res, before, f.eng.Metrics().Snapshot())
		rep.TraceMismatches += mism
		rep.TraceSpanDefects += defects
	}

	after := f.snapshot()
	delta := func(counter string) uint64 { return sum(after, counter) - sum(before, counter) }
	rep.SearchRPCDelta = delta("hdk_search_rpcs_total")
	rep.CacheHitDelta = delta("hdk_search_cache_hits_total")
	rep.CacheMissDelta = delta("hdk_search_cache_misses_total")
	rep.ShedDelta = delta("hdk_search_shed_total")
	scrape(httpAddrs, after, rep)
	return nil
}

// expectUnrepaired fails unless exactly want members of the client's
// view report, over cluster.info, a view that owes a repair.
func (f *fixture) expectUnrepaired(want int) error {
	n := 0
	for _, m := range f.c.Members() {
		info, err := cluster.FetchInfo(f.tr, m.Addr())
		if err != nil {
			return err
		}
		if info.Unrepaired {
			n++
		}
	}
	if n != want {
		return fmt.Errorf("experiments: %d/%d members report an unrepaired view, want %d", n, f.c.Size(), want)
	}
	return nil
}

// traceFaults checks one traced coordination. mismatches counts level
// spans whose rpcs differ from the engine's per-level fetch-RPC deltas
// (before → after), and trace totals that differ from the coordination's
// own result: one level per round, and rpcs, fetch spans and failovers
// summing to its counters. defects counts structural faults: no
// "coordinate" root, not exactly one admission and one rank span, or a
// level whose fetch children differ from its rpcs (one span per owner
// batch, failover waves included); a missing trace is one defect.
func traceFaults(trace *telemetry.Trace, res *core.SearchResult, before, after telemetry.Snapshot) (mismatches, defects int) {
	if trace == nil || len(trace.Spans) == 0 || trace.Spans[0].Name != "coordinate" {
		return 0, 1
	}
	levels, fetches := trace.Find("level"), trace.Find("fetch")
	bySize := make(map[int]uint64)
	var rpcs, failovers uint64
	for _, id := range levels {
		sp := &trace.Spans[id]
		size, err1 := strconv.Atoi(sp.Attr("level"))
		r, err2 := strconv.ParseUint(sp.Attr("rpcs"), 10, 64)
		fo, err3 := strconv.ParseUint(sp.Attr("failovers"), 10, 64)
		if err1 != nil || err2 != nil || err3 != nil {
			return 1, 1 // malformed attributes
		}
		bySize[size] += r
		rpcs += r
		failovers += fo
		children := 0
		for _, f := range fetches {
			if trace.Spans[f].Parent == id {
				children++
			}
		}
		if uint64(children) != r {
			defects++
		}
	}
	for size := 1; size <= core.MaxKeySize; size++ {
		if bySize[size] != levelDelta(before, after, "hdk_query_fetch_rpcs_total", size) {
			mismatches++
		}
	}
	if len(levels) != res.Rounds {
		mismatches++
	}
	if rpcs != uint64(res.RPCs) || len(fetches) != res.RPCs {
		mismatches++
	}
	if failovers != uint64(res.Failovers) {
		mismatches++
	}
	if len(trace.Find("admission")) != 1 {
		defects++
	}
	if len(trace.Find("rank")) != 1 {
		defects++
	}
	return mismatches, defects
}

// scrape reads every daemon's exposition values from its snapshot
// (snaps, in process order) and checks its HTTP endpoint, which must
// answer in the Prometheus text format 0.0.4, against it: a daemon
// failing a check leaves the per-node OK counters short of Nodes.
func scrape(httpAddrs []string, snaps []telemetry.Snapshot, rep *TCPServeReport) {
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
	for i, snap := range snaps {
		if body, _, ok := get("http://" + httpAddrs[i] + "/healthz"); ok && strings.TrimSpace(body) == "ok" {
			rep.HealthOK++
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
			if body, ctype, ok := get("http://" + httpAddrs[i] + "/metrics"); ok && ctype == "text/plain; version=0.0.4; charset=utf-8" && strings.Contains(body, want.String()) {
				rep.ScrapeOK++
			}
		}
		depth, _ := snap.Gauge("hdk_search_queue_depth")
		rep.QueueDepth += depth
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
	rep.SlowLogged = sum(snaps, "hdk_search_slow_total")
	rep.ScrapedProbes = sum(snaps, "hdk_query_probes_total")
	rep.ScrapedFoundKeys = sum(snaps, "hdk_query_found_keys_total")
	rep.ScrapedFetchRPCs = sum(snaps, "hdk_query_fetch_rpcs_total")
	rep.ScrapedLocalFetches = sum(snaps, "hdk_query_local_fetches_total")
}

// serveSchedule is TCPServe's schedule: one wave, then the victim is
// killed, forgotten, and its keys repaired onto the survivors.
func serveSchedule(nodes, victim int) FaultSchedule {
	return sequence(nodes,
		FaultAction{Op: OpWave, Node: -1},
		FaultAction{Op: OpKill, Node: victim},
		FaultAction{Op: OpForget, Node: victim},
		FaultAction{Op: OpRepair, Node: -1})
}
