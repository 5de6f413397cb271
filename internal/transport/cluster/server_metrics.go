package cluster

import (
	"fmt"
	"os"
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
)

// Registry series the cluster daemon emits.
const (
	metricInsertRPCs         = "hdk_insert_rpcs_total"
	metricFetchRPCs          = "hdk_fetch_rpcs_total"
	metricSearchRPCs         = "hdk_search_rpcs_total"
	metricSearchShed         = "hdk_search_shed_total"
	metricSearchCacheHits    = "hdk_search_cache_hits_total"
	metricSearchCacheMisses  = "hdk_search_cache_misses_total"
	metricSearchSlow         = "hdk_search_slow_total"
	metricIngestChunks       = "hdk_ingest_chunks_total"
	metricIngestBytes        = "hdk_ingest_bytes_total"
	metricBuildRounds        = "hdk_build_rounds_total"
	metricAdmissionWaitNanos = "hdk_search_admission_wait_nanoseconds"
	metricCoordinationNanos  = "hdk_search_coordination_nanoseconds"
	metricBuildRoundNanos    = "hdk_build_round_nanoseconds"
	// Where a round goes, per round (label round="s"): the worker's
	// candidate generation, its routing + insert-RPC pass, and how long
	// its finished round then waited for the coordinator's status frame to
	// learn of it — the slowest member's sample is the barrier's cost.
	metricBuildGenerateNanos    = "hdk_build_generate_nanoseconds"
	metricBuildInsertNanos      = "hdk_build_insert_nanoseconds"
	metricBuildBarrierWaitNanos = "hdk_build_barrier_wait_nanoseconds"
	metricSearchQueueDepth      = "hdk_search_queue_depth"
	metricClusterMembers        = "hdk_cluster_members"
	metricStoreKeys             = "hdk_store_keys"
)

// serverMetrics is the daemon's telemetry registry plus the hot-path
// instruments pre-registered on it, so serving code increments a field
// instead of taking the registry lock per request. The registry itself
// is the single source of truth: cluster.metrics / the -http endpoint
// export the full registry (coordinator- and transport-level series
// included), and every reader of a daemon's counters reads that export.
type serverMetrics struct {
	reg *telemetry.Registry

	query *core.QueryMetrics // the coordinator's per-level series, handles resolved once

	insertRPCs  *telemetry.Counter // hdk.insert RPCs served (re-index traffic meter)
	fetchRPCs   *telemetry.Counter // hdk.fetchBatch RPCs served (query fetch meter)
	searchRPCs  *telemetry.Counter // hdk.search coordinations served (cache hits included)
	searchShed  *telemetry.Counter // searches shed by admission control
	cacheHits   *telemetry.Counter // query-result cache hits
	cacheMisses *telemetry.Counter // query-result cache misses
	slowQueries *telemetry.Counter // coordinations over the slow-query threshold

	ingestChunks *telemetry.Counter // hdk.ingest chunks durably accepted
	ingestBytes  *telemetry.Counter // hdk.ingest chunk payload bytes accepted
	buildRounds  *telemetry.Counter // hdk.build per-shard rounds completed (failed passes are not counted)

	admissionWait  *telemetry.Histogram // wait for a worker slot, admitted requests only
	coordination   *telemetry.Histogram // fresh coordination latency (cache hits excluded)
	buildRoundTime *telemetry.Histogram // coordinator-observed wall time per build round

	// Worker-side round breakdown, indexed by round (key size); [0] unused.
	buildGenerate, buildInsert, buildBarrierWait [core.MaxKeySize + 1]*telemetry.Histogram
}

func newServerMetrics() *serverMetrics {
	reg := telemetry.NewRegistry()
	m := &serverMetrics{
		reg:            reg,
		query:          core.NewQueryMetrics(reg),
		insertRPCs:     reg.Counter(metricInsertRPCs),
		fetchRPCs:      reg.Counter(metricFetchRPCs),
		searchRPCs:     reg.Counter(metricSearchRPCs),
		searchShed:     reg.Counter(metricSearchShed),
		cacheHits:      reg.Counter(metricSearchCacheHits),
		cacheMisses:    reg.Counter(metricSearchCacheMisses),
		slowQueries:    reg.Counter(metricSearchSlow),
		ingestChunks:   reg.Counter(metricIngestChunks),
		ingestBytes:    reg.Counter(metricIngestBytes),
		buildRounds:    reg.Counter(metricBuildRounds),
		admissionWait:  reg.Histogram(metricAdmissionWaitNanos),
		coordination:   reg.Histogram(metricCoordinationNanos),
		buildRoundTime: reg.Histogram(metricBuildRoundNanos),
	}
	for round := 1; round <= core.MaxKeySize; round++ {
		l := telemetry.L("round", strconv.Itoa(round))
		m.buildGenerate[round] = reg.Histogram(metricBuildGenerateNanos, l)
		m.buildInsert[round] = reg.Histogram(metricBuildInsertNanos, l)
		m.buildBarrierWait[round] = reg.Histogram(metricBuildBarrierWaitNanos, l)
	}
	return m
}

// registerGauges wires the callback gauges that read live server state.
// Called from NewServer before the transport listens; each callback is
// evaluated at snapshot time and takes only the lock of the state it
// reads (Snapshot is never called under those locks).
func (s *Server) registerGauges() {
	reg := s.metrics.reg
	reg.GaugeFunc(metricSearchQueueDepth, func() float64 {
		s.amu.Lock()
		defer s.amu.Unlock()
		// Admitted minus running = waiting for a worker slot (clamped:
		// the two reads are not atomic w.r.t. releases in flight).
		if depth := s.searchQueued - len(s.searchSem); depth > 0 {
			return float64(depth)
		}
		return 0
	})
	reg.GaugeFunc(metricClusterMembers, func() float64 { return float64(s.fabric.Size()) })
	reg.GaugeFunc(metricStoreKeys, func() float64 {
		s.mu.Lock()
		store := s.store
		s.mu.Unlock()
		if store == nil {
			return 0
		}
		return float64(store.KeyCount())
	})
}

// Metrics returns the daemon's telemetry registry — the one
// cluster.metrics renders, shared with the coordinator's per-level
// series. Callers instrument further subsystems onto it (the daemon
// main registers its transport and durable store here) and the -http
// endpoint serves its Prometheus exposition.
func (s *Server) Metrics() *telemetry.Registry { return s.metrics.reg }

// SetSlowQueryLog arms the per-node slow-query log: any fresh
// coordination slower than threshold bumps hdk_search_slow_total and is
// reported to stderr, rate-limited to one line per second so a
// saturated daemon meters itself instead of flooding its log (the
// counter stays exact; only the log lines are sampled). A zero or
// negative threshold disables both.
func (s *Server) SetSlowQueryLog(threshold time.Duration) {
	s.slowQueryNanos.Store(int64(threshold))
}

func (s *Server) noteSlowQuery(req core.SearchRequest, res *core.SearchResult, dur time.Duration) {
	thr := s.slowQueryNanos.Load()
	if thr <= 0 || int64(dur) < thr {
		return
	}
	s.metrics.slowQueries.Inc()
	now := time.Now().UnixNano()
	last := s.slowLogLast.Load()
	if now-last < int64(time.Second) || !s.slowLogLast.CompareAndSwap(last, now) {
		return
	}
	fmt.Fprintf(os.Stderr, "hdknode %s: slow query (%v): terms=%q k=%d rpcs=%d failovers=%d postings=%d\n",
		s.addr, dur.Round(time.Microsecond), req.Terms, req.K, res.RPCs, res.Failovers, res.FetchedPosts)
}
