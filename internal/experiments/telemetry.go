package experiments

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the observability scenario: the same kind of
// live multi-process cluster the serving scenario drives, observed
// through the telemetry surface this time. The scenario verifies — by
// exact accounting, not sampling — that the daemons' registries agree
// with what a client actually experienced: every hdk.search response
// the client saw (fresh, cached, shed) is matched against the summed
// hdk_search_* counter deltas; traced coordinations are matched
// against the coordinator's own SearchResult and, level by level,
// against the client-fabric engine searching from the same member; and
// the -http endpoint's Prometheus exposition must parse, carry a
// non-empty coordination-latency histogram, a present build_info series
// and an idle queue depth of 0.
// The CI cluster-e2e job runs this against 5 real child processes
// started with -search-workers 1 -search-queue 0 -http 127.0.0.1:0
// (TestTCPTelemetryE2E).

// TelemetryOpts parameterizes the observability scenario.
type TelemetryOpts struct {
	Nodes    int // daemon processes
	Replicas int // replication factor R
	Docs     int
	DFMax    int
	Window   int
	Queries  int
	TopK     int
	Seed     int64
	// Burst shapes the shed-accounting phase: BurstClients concurrent
	// NoCache singles are fired at one daemon, up to BurstRounds times,
	// until at least one is shed. The daemons must run -search-workers 1
	// -search-queue 0 for a burst to overrun the admission bound.
	BurstClients int
	BurstRounds  int
	// Traced is how many queries re-run traced (with NoCache, so each is
	// a real coordination). 0 traces every query.
	Traced int
}

// DefaultTelemetryOpts is the CI-gated configuration.
func DefaultTelemetryOpts() TelemetryOpts {
	return TelemetryOpts{
		Nodes: 5, Replicas: 3, Docs: 120, DFMax: 8, Window: 8,
		Queries: 12, TopK: 10, Seed: 17, BurstClients: 8, BurstRounds: 50,
	}
}

// TelemetryReport is the scenario's measurement. Clean documents the
// gates.
type TelemetryReport struct {
	Nodes   int
	Queries int

	// Client-observed workload — the accounting ground truth. Every
	// hdk.search response the client received, by kind, plus how many
	// fresh responses were cache-eligible (the misses a daemon counted).
	FreshServed  uint64
	CachedServed uint64
	Overloads    uint64
	MissEligible uint64

	// The daemons' registry deltas over exactly that window (summed
	// cluster-wide). Each must equal its client-observed counterpart.
	SearchRPCDelta uint64
	CacheHitDelta  uint64
	CacheMissDelta uint64
	ShedDelta      uint64

	// Traced coordinations vs the coordinator's own SearchResult (rounds,
	// RPCs, failovers) and vs the client-fabric engine searching from the
	// coordinating member: per-level span rpcs attrs vs
	// Traffic.FetchRPCsBySize deltas, and bit-identical answers.
	TracedQueries    int
	TraceMismatches  int // per-level RPC counts diverging from the engine, or trace totals from the result
	TraceSpanDefects int // missing root/admission/rank, or fetch spans not matching rpcs
	ResultMismatches int // traced answers diverging from the engine's

	// HTTP exposition gates, across every daemon.
	HealthOK    int     // /healthz answering 200 "ok"
	ScrapeOK    int     // /metrics parsing as Prometheus text exposition
	BuildInfoOK int     // hdk_build_info present in the scrape
	CoordCount  uint64  // merged coordination-histogram count from the scrapes
	CoordP99    float64 // merged coordination p99 (ns); must be > 0
	QueueDepth  float64 // summed hdk_search_queue_depth at idle; must be 0
	SlowLogged  uint64  // summed hdk_search_slow_total (daemons run -slow-query 1ns)

	// The coordinator series the absent-probe ratio and the local/remote
	// batch split are read from, summed over levels and daemons: found
	// keys out of probes, local fetch batches out of all fetch batches.
	ScrapedProbes       uint64 // hdk_query_probes_total
	ScrapedFoundKeys    uint64 // hdk_query_found_keys_total; must be in (0, ScrapedProbes]
	ScrapedFetchRPCs    uint64 // hdk_query_fetch_rpcs_total
	ScrapedLocalFetches uint64 // hdk_query_local_fetches_total; must be in (0, ScrapedFetchRPCs]
}

// Clean reports whether every observability gate held.
func (r *TelemetryReport) Clean() bool {
	return r.SearchRPCDelta == r.FreshServed+r.CachedServed+r.Overloads &&
		r.CacheHitDelta == r.CachedServed &&
		r.CacheMissDelta == r.MissEligible &&
		r.ShedDelta == r.Overloads && r.Overloads > 0 &&
		r.TracedQueries > 0 && r.TraceMismatches == 0 &&
		r.TraceSpanDefects == 0 && r.ResultMismatches == 0 &&
		r.HealthOK == r.Nodes && r.ScrapeOK == r.Nodes &&
		r.BuildInfoOK == r.Nodes && r.CoordCount > 0 && r.CoordP99 > 0 &&
		r.QueueDepth == 0 && r.SlowLogged > 0 &&
		r.ScrapedFoundKeys > 0 && r.ScrapedFoundKeys <= r.ScrapedProbes &&
		r.ScrapedLocalFetches > 0 && r.ScrapedLocalFetches <= r.ScrapedFetchRPCs
}

// Telemetry runs the observability scenario against an already-running
// cluster: addrs are the daemon RPC addresses and httpAddrs their
// observability endpoints (both in start order).
func Telemetry(tr transport.Transport, addrs, httpAddrs []string,
	opts TelemetryOpts, progress Progress) (*TelemetryReport, error) {
	if progress == nil {
		progress = nopProgress
	}
	if len(addrs) != opts.Nodes || len(httpAddrs) != opts.Nodes {
		return nil, fmt.Errorf("experiments: %d rpc / %d http addresses for %d nodes",
			len(addrs), len(httpAddrs), opts.Nodes)
	}

	col, err := corpus.Generate(corpus.GenParams{
		NumDocs: opts.Docs, VocabSize: 2000, AvgDocLen: 50,
		Skew: 1.0, NumTopics: 8, TopicTerms: 80, TopicMix: 0.5, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
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

	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	if err := c.Configure(cfg); err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(c, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return nil, err
	}
	members := c.Members()
	for i, part := range col.SplitRoundRobin(opts.Nodes) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			return nil, err
		}
	}
	progress("telemetry: building %d docs over %d processes (R=%d)", col.M(), opts.Nodes, opts.Replicas)
	if err := eng.BuildIndex(); err != nil {
		return nil, fmt.Errorf("cluster build: %w", err)
	}

	rep := &TelemetryReport{Nodes: opts.Nodes, Queries: len(queries)}
	reqs := make([]core.SearchRequest, len(queries))
	for i, q := range queries {
		reqs[i] = core.SearchRequest{Terms: eng.QueryTerms(q), K: opts.TopK}
	}

	// The accounting window opens AFTER the build: everything the client
	// observes from here on must be mirrored exactly by the counter
	// deltas read at the end.
	before, err := sumSearchCounters(tr, addrs)
	if err != nil {
		return nil, err
	}

	// Phase 1: serial cold pass (every response fresh, every request a
	// cache miss) then warm re-pass with identical routing (every
	// response a cache hit).
	progress("telemetry: cold+warm passes, %d queries over %d coordinators", len(reqs), len(addrs))
	for i, req := range reqs {
		_, cached, err := c.SearchVia(addrs[i%len(addrs)], req)
		if err != nil {
			return nil, fmt.Errorf("cold query %d: %w", i, err)
		}
		if cached {
			rep.CachedServed++
		} else {
			rep.FreshServed++
			rep.MissEligible++
		}
	}
	for i, req := range reqs {
		_, cached, err := c.SearchVia(addrs[i%len(addrs)], req)
		if err != nil {
			return nil, fmt.Errorf("warm query %d: %w", i, err)
		}
		if cached {
			rep.CachedServed++
		} else {
			rep.FreshServed++
			rep.MissEligible++
		}
	}

	// Phase 2: shed accounting. Concurrent NoCache singles against one
	// daemon until at least one overruns the admission bound; every
	// client-side outcome (fresh or overload) is tallied, and the summed
	// shed-counter delta must equal the overloads the client saw.
	progress("telemetry: overload bursts (%d clients) against %s", opts.BurstClients, addrs[0])
	burstReq := reqs[0]
	burstReq.NoCache = true
	for round := 0; round < opts.BurstRounds && rep.Overloads == 0; round++ {
		outcomes := make([]error, opts.BurstClients)
		var wg sync.WaitGroup
		for w := 0; w < opts.BurstClients; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				_, _, outcomes[w] = c.TrySearchVia(addrs[0], burstReq)
			}(w)
		}
		wg.Wait()
		for _, err := range outcomes {
			switch {
			case err == nil:
				rep.FreshServed++
			case errors.Is(err, core.ErrOverloaded):
				rep.Overloads++
			default:
				return nil, fmt.Errorf("burst request: %w", err)
			}
		}
	}
	progress("telemetry: bursts done, %d overloads observed", rep.Overloads)

	// Phase 3: traced coordinations, each checked against the
	// client-fabric engine's deterministic per-level counters. NoCache
	// keeps every traced request a real coordination, and the engine runs
	// the identical traversal over the identical membership, so the
	// per-level fetch-RPC deltas are the exact ground truth for the
	// trace's level spans.
	traced := opts.Traced
	if traced <= 0 || traced > len(queries) {
		traced = len(queries)
	}
	origins := make(map[string]overlay.Member, len(members))
	for _, m := range members {
		origins[m.Addr()] = m
	}
	for i := 0; i < traced; i++ {
		req := reqs[i]
		req.NoCache = true
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
		// The engine searches from the coordinating daemon's own member:
		// which replica a key is read from — and so how a level's keys
		// group into batches — depends on who coordinates (core.ReadPlan).
		tb := eng.Traffic().Snapshot()
		want, err := eng.Search(queries[i], origins[coord], opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("reference query %d: %w", i, err)
		}
		ta := eng.Traffic().Snapshot()
		if !reflect.DeepEqual(want.Results, res.Results) {
			rep.ResultMismatches++
		}
		rep.TraceMismatches += traceLevelMismatches(trace, tb, ta)
		rep.TraceMismatches += traceResultMismatches(trace, res)
		rep.TraceSpanDefects += traceShapeDefects(trace)
	}
	progress("telemetry: %d traced coordinations, %d level mismatches, %d shape defects",
		rep.TracedQueries, rep.TraceMismatches, rep.TraceSpanDefects)

	// Close the accounting window and compare.
	after, err := sumSearchCounters(tr, addrs)
	if err != nil {
		return nil, err
	}
	rep.SearchRPCDelta = after.rpcs - before.rpcs
	rep.CacheHitDelta = after.hits - before.hits
	rep.CacheMissDelta = after.misses - before.misses
	rep.ShedDelta = after.shed - before.shed

	// Phase 4: scrape every daemon's HTTP endpoint.
	scrapeCluster(httpAddrs, rep)
	progress("telemetry: scraped %d/%d endpoints, coordination p99 %.2fms over %d, %d slow-logged",
		rep.ScrapeOK, opts.Nodes, rep.CoordP99/1e6, rep.CoordCount, rep.SlowLogged)
	return rep, nil
}

// searchCounters is the cluster-wide sum of the serving-path counters.
type searchCounters struct{ rpcs, hits, misses, shed uint64 }

func sumSearchCounters(tr transport.Transport, addrs []string) (searchCounters, error) {
	var sum searchCounters
	for _, addr := range addrs {
		snap, err := cluster.FetchMetrics(tr, addr)
		if err != nil {
			return sum, fmt.Errorf("experiments: metrics from %s: %w", addr, err)
		}
		sum.rpcs += snap.CounterSum("hdk_search_rpcs_total")
		sum.hits += snap.CounterSum("hdk_search_cache_hits_total")
		sum.misses += snap.CounterSum("hdk_search_cache_misses_total")
		sum.shed += snap.CounterSum("hdk_search_shed_total")
	}
	return sum, nil
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

// scrapeCluster pulls /healthz and /metrics from every daemon and fills
// the report's exposition gates (a failed scrape just leaves the
// per-node OK counters short of Nodes, failing Clean).
func scrapeCluster(httpAddrs []string, rep *TelemetryReport) {
	client := &http.Client{Timeout: 10 * time.Second}
	for _, addr := range httpAddrs {
		resp, err := client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				rep.HealthOK++
			}
		}
		resp, err = client.Get("http://" + addr + "/metrics")
		if err != nil {
			continue
		}
		samples, perr := telemetry.ParsePrometheus(resp.Body)
		resp.Body.Close()
		if perr != nil {
			continue
		}
		rep.ScrapeOK++
		for _, s := range samples {
			switch s.Name {
			case "hdk_build_info":
				if s.Value == 1 {
					rep.BuildInfoOK++
				}
			case "hdk_search_queue_depth":
				rep.QueueDepth += s.Value
			case "hdk_search_slow_total":
				rep.SlowLogged += uint64(s.Value)
			case "hdk_query_probes_total":
				rep.ScrapedProbes += uint64(s.Value)
			case "hdk_query_found_keys_total":
				rep.ScrapedFoundKeys += uint64(s.Value)
			case "hdk_query_fetch_rpcs_total":
				rep.ScrapedFetchRPCs += uint64(s.Value)
			case "hdk_query_local_fetches_total":
				rep.ScrapedLocalFetches += uint64(s.Value)
			}
		}
		q99, count := telemetry.PromHistogramQuantile(samples, "hdk_search_coordination_nanoseconds", nil, 0.99)
		rep.CoordCount += count
		if q99 > rep.CoordP99 { // report the worst daemon's p99
			rep.CoordP99 = q99
		}
	}
}

// Fprint renders the observability scenario report.
func (r *TelemetryReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Telemetry — %d hdknode daemons, %d queries\n", r.Nodes, r.Queries)
	fmt.Fprintf(w, "counter parity: search %d vs %d served | hits %d vs %d | misses %d vs %d | shed %d vs %d\n",
		r.SearchRPCDelta, r.FreshServed+r.CachedServed+r.Overloads,
		r.CacheHitDelta, r.CachedServed, r.CacheMissDelta, r.MissEligible,
		r.ShedDelta, r.Overloads)
	fmt.Fprintf(w, "traces: %d coordinations, %d level mismatches, %d shape defects, %d result mismatches\n",
		r.TracedQueries, r.TraceMismatches, r.TraceSpanDefects, r.ResultMismatches)
	fmt.Fprintf(w, "scrape: %d/%d healthz, %d/%d metrics, %d/%d build_info | coord p99 %.2fms over %d | queue %.0f | %d slow-logged\n",
		r.HealthOK, r.Nodes, r.ScrapeOK, r.Nodes, r.BuildInfoOK, r.Nodes,
		r.CoordP99/1e6, r.CoordCount, r.QueueDepth, r.SlowLogged)
	fmt.Fprintf(w, "coordinator series: %d/%d probes found a key | %d/%d fetch batches served by the coordinator's own store\n",
		r.ScrapedFoundKeys, r.ScrapedProbes, r.ScrapedLocalFetches, r.ScrapedFetchRPCs)
}
