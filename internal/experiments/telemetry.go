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

	"repro/internal/core"
	"repro/internal/overlay"
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
// non-empty coordination-latency histogram, a present build_info series,
// the found-keys and local-fetches series on every daemon and an idle
// queue depth of 0.
// The CI cluster-e2e job runs this against 5 real child processes
// started with -search-workers 1 -search-queue 0 -http 127.0.0.1:0
// (TestTCPTelemetryE2E).

// TelemetryOpts parameterizes the observability scenario.
type TelemetryOpts struct {
	ClusterOpts
	// Burst shapes the shed-accounting phase: BurstClients concurrent
	// NoCache singles are fired at one daemon, up to BurstRounds times,
	// until at least one is shed. The daemons must run -search-workers 1
	// -search-queue 0 for a burst to overrun the admission bound.
	BurstClients int
	BurstRounds  int
}

// DefaultTelemetryOpts is the CI-gated configuration.
func DefaultTelemetryOpts() TelemetryOpts {
	return TelemetryOpts{
		ClusterOpts: ClusterOpts{
			Nodes: 5, Replicas: 3, Docs: 120, DFMax: 8, Window: 8,
			Queries: 12, TopK: 10, Seed: 17,
		},
		BurstClients: 8, BurstRounds: 50,
	}
}

// TelemetryReport is the scenario's measurement; Failures lists the
// gates it misses.
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
	// batch split are read from: how many daemons expose each (must be
	// every one), and their sums over levels and daemons — found keys out
	// of probes, local fetch batches out of all fetch batches.
	FoundKeysExposed    int    // daemons exposing hdk_query_found_keys_total
	LocalFetchesExposed int    // daemons exposing hdk_query_local_fetches_total
	ScrapedProbes       uint64 // hdk_query_probes_total
	ScrapedFoundKeys    uint64 // hdk_query_found_keys_total; must be in (0, ScrapedProbes]
	ScrapedFetchRPCs    uint64 // hdk_query_fetch_rpcs_total
	ScrapedLocalFetches uint64 // hdk_query_local_fetches_total; must be in (0, ScrapedFetchRPCs]
}

// Failures returns one message per gate the run missed.
func (r *TelemetryReport) Failures() []string {
	var g gates
	// Exact counter parity: the registry agrees with the client.
	served := r.FreshServed + r.CachedServed + r.Overloads
	g.check(r.SearchRPCDelta == served, "search RPC delta %d, want %d (fresh %d + cached %d + shed %d)", r.SearchRPCDelta, served, r.FreshServed, r.CachedServed, r.Overloads)
	g.check(r.CacheHitDelta == r.CachedServed, "cache hit delta %d, client saw %d cached responses", r.CacheHitDelta, r.CachedServed)
	g.check(r.CacheMissDelta == r.MissEligible, "cache miss delta %d, client sent %d miss-eligible requests", r.CacheMissDelta, r.MissEligible)
	g.check(r.ShedDelta == r.Overloads, "shed delta %d, client observed %d overloads", r.ShedDelta, r.Overloads)
	g.check(r.Overloads > 0, "burst phase produced no overload — shed accounting not exercised")
	// Trace ground truth: every traced coordination matches the engine.
	g.check(r.TracedQueries > 0, "no queries were traced")
	g.check(r.TraceMismatches == 0, "%d traced coordinations diverged from the engine's per-level RPC counters", r.TraceMismatches)
	g.check(r.TraceSpanDefects == 0, "%d span trees were structurally defective", r.TraceSpanDefects)
	g.check(r.ResultMismatches == 0, "%d traced answers diverged from the engine's", r.ResultMismatches)
	// Exposition gates.
	g.check(r.HealthOK == r.Nodes && r.ScrapeOK == r.Nodes && r.BuildInfoOK == r.Nodes, "scrape: %d/%d healthz, %d/%d metrics, %d/%d build_info", r.HealthOK, r.Nodes, r.ScrapeOK, r.Nodes, r.BuildInfoOK, r.Nodes)
	g.check(r.CoordCount > 0 && r.CoordP99 > 0, "coordination histogram empty in the scrapes: count %d, p99 %.0f", r.CoordCount, r.CoordP99)
	g.check(r.QueueDepth == 0, "idle queue depth %.0f, want 0", r.QueueDepth)
	g.check(r.SlowLogged > 0, "hdk_search_slow_total is 0 with -slow-query 1ns")
	// The two series the absent-probe ratio and the local/remote batch
	// split are derived from must be exposed by every daemon and
	// consistent cluster-wide.
	g.check(r.FoundKeysExposed == r.Nodes && r.LocalFetchesExposed == r.Nodes, "found-keys series on %d/%d daemons, local-fetches series on %d/%d", r.FoundKeysExposed, r.Nodes, r.LocalFetchesExposed, r.Nodes)
	g.check(r.ScrapedFoundKeys > 0 && r.ScrapedFoundKeys <= r.ScrapedProbes, "hdk_query_found_keys_total %d against hdk_query_probes_total %d", r.ScrapedFoundKeys, r.ScrapedProbes)
	g.check(r.ScrapedLocalFetches > 0 && r.ScrapedLocalFetches <= r.ScrapedFetchRPCs, "hdk_query_local_fetches_total %d against hdk_query_fetch_rpcs_total %d", r.ScrapedLocalFetches, r.ScrapedFetchRPCs)
	return g
}

// Clean reports whether every observability gate held.
func (r *TelemetryReport) Clean() bool { return len(r.Failures()) == 0 }

// Telemetry runs the observability scenario against an already-running
// cluster: addrs are the daemon RPC addresses and httpAddrs their
// observability endpoints (both in start order).
func Telemetry(tr transport.Transport, addrs, httpAddrs []string,
	opts TelemetryOpts, progress Progress) (*TelemetryReport, error) {
	if len(httpAddrs) != len(addrs) {
		return nil, fmt.Errorf("experiments: %d rpc / %d http addresses", len(addrs), len(httpAddrs))
	}
	f, err := newFixture(tr, addrs, opts.ClusterOpts, 0, progress)
	if err != nil {
		return nil, err
	}
	progress, c, queries := f.progress, f.c, f.queries
	eng, _, err := f.build("telemetry")
	if err != nil {
		return nil, err
	}
	rep := &TelemetryReport{Nodes: opts.Nodes, Queries: len(queries)}
	reqs := f.requests(false)

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

	// Phase 3: every query re-run traced, each checked against the
	// client-fabric engine's deterministic per-level counters. NoCache
	// keeps every traced request a real coordination, and the engine runs
	// the identical traversal over the identical membership, so the
	// per-level fetch-RPC deltas are the exact ground truth for the
	// trace's level spans.
	origins := make(map[string]overlay.Member, opts.Nodes)
	for _, m := range c.Members() {
		origins[m.Addr()] = m
	}
	for i, req := range reqs {
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
		found, local := false, false
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
				found = true
			case "hdk_query_fetch_rpcs_total":
				rep.ScrapedFetchRPCs += uint64(s.Value)
			case "hdk_query_local_fetches_total":
				rep.ScrapedLocalFetches += uint64(s.Value)
				local = true
			}
		}
		if found {
			rep.FoundKeysExposed++
		}
		if local {
			rep.LocalFetchesExposed++
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
	fmt.Fprintf(w, "coordinator series: exposed by %d/%d and %d/%d daemons | %d/%d probes found a key | %d/%d fetch batches served by the coordinator's own store\n",
		r.FoundKeysExposed, r.Nodes, r.LocalFetchesExposed, r.Nodes,
		r.ScrapedFoundKeys, r.ScrapedProbes, r.ScrapedLocalFetches, r.ScrapedFetchRPCs)
}
