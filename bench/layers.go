package main

import (
	"fmt"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/postings"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// Names of the daemon-served series the layer report reads, spelled out
// here because the packages keep theirs unexported. A renamed series
// reads as an absent one, and the report shows it as zero.
const (
	seriesCallNanos      = "hdk_transport_call_nanoseconds"
	seriesDials          = "hdk_transport_dials_total"
	seriesReuses         = "hdk_transport_pool_reuses_total"
	seriesAdmissionNanos = "hdk_search_admission_wait_nanoseconds"
	seriesShed           = "hdk_search_shed_total"
	seriesCacheHits      = "hdk_search_cache_hits_total"
	seriesCacheMisses    = "hdk_search_cache_misses_total"
	seriesCoordNanos     = "hdk_search_coordination_nanoseconds"
	seriesLevelNanos     = "hdk_query_level_nanoseconds"
	seriesBuildRound     = "hdk_build_round_nanoseconds"
	seriesInsertRPCs     = "hdk_insert_rpcs_total"
	seriesAppends        = "hdk_durable_appends_total"
	seriesAppendBytes    = "hdk_durable_append_bytes_total"
	seriesCompactions    = "hdk_durable_compactions_total"
)

// snapshots reads every daemon's registry over cluster.metrics.
func snapshots(tr transport.Transport, addrs []string) ([]telemetry.Snapshot, error) {
	out := make([]telemetry.Snapshot, len(addrs))
	for i, a := range addrs {
		var err error
		if out[i], err = cluster.FetchMetrics(tr, a); err != nil {
			return nil, fmt.Errorf("metrics of %s: %w", a, err)
		}
	}
	return out, nil
}

// windowLayers fills in the figures that are deltas of the daemons' own
// counters and histograms over one stretch of the request stream.
func windowLayers(m map[string]float64, before, after []telemetry.Snapshot) {
	call := histDelta(before, after, seriesCallNanos)
	m["transport.call_p50_us"] = histQuantile(call, 0.5) / 1e3
	m["transport.call_p99_us"] = histQuantile(call, 0.99) / 1e3
	dials, reuses := counterDelta(before, after, seriesDials), counterDelta(before, after, seriesReuses)
	m["transport.pool_reuse_ratio"] = ratio(reuses, dials+reuses)

	wait := histDelta(before, after, seriesAdmissionNanos)
	m["cluster.admission_wait_p50_us"] = histQuantile(wait, 0.5) / 1e3
	m["cluster.admission_wait_p99_us"] = histQuantile(wait, 0.99) / 1e3
	m["cluster.shed"] = float64(counterDelta(before, after, seriesShed))
	hits, misses := counterDelta(before, after, seriesCacheHits), counterDelta(before, after, seriesCacheMisses)
	m["cluster.cache_hit_ratio"] = ratio(hits, hits+misses)

	coord := histDelta(before, after, seriesCoordNanos)
	m["core.coordination_p50_us"] = histQuantile(coord, 0.5) / 1e3
	m["core.coordination_p99_us"] = histQuantile(coord, 0.99) / 1e3
	for lvl := 1; lvl <= 3; lvl++ {
		h := histDelta(before, after, seriesLevelNanos, telemetry.L("level", fmt.Sprint(lvl)))
		m[fmt.Sprintf("core.level%d_us", lvl)] = h.Mean() / 1e3
	}
}

// buildLayers fills in the figures of the set-up that was kept: the
// client-timed phases, and the daemons' counters, which on a freshly
// booted fleet are their own deltas.
func buildLayers(m map[string]float64, st setupTimes, after []telemetry.Snapshot, docs int, diskBytes int64) {
	fresh := make([]telemetry.Snapshot, len(after))
	m["cluster.ingest_s"] = st.ingestTotal().Seconds()
	m["cluster.build_s"] = st.build.Seconds()
	m["cluster.build_rounds_s"] = float64(histDelta(fresh, after, seriesBuildRound).Sum) / 1e9
	m["cluster.build_docs_per_s"] = float64(docs) / (st.ingestTotal() + st.build).Seconds()
	m["core.insert_rpcs"] = float64(counterDelta(fresh, after, seriesInsertRPCs))
	m["durable.append_bytes_per_doc"] = float64(counterDelta(fresh, after, seriesAppendBytes)) / float64(docs)
	m["durable.compactions"] = float64(counterDelta(fresh, after, seriesCompactions))
	m["durable.disk_bytes_per_doc"] = float64(diskBytes) / float64(docs)
}

// probeRTT is the median round trip of the cheapest RPC a daemon serves
// (cluster.members) over a pooled connection: the floor under every call.
func probeRTT(tr transport.Transport, addrs []string) (time.Duration, error) {
	const calls = 1500
	d := make([]float64, 0, calls)
	for i := 0; i < calls; i++ {
		t0 := time.Now()
		if _, err := cluster.MembersOf(tr, addrs[i%len(addrs)]); err != nil {
			return 0, err
		}
		d = append(d, float64(time.Since(t0)))
	}
	return time.Duration(median(d)), nil
}

// probeStoreFetch times the store layer from outside: for each pool query
// in turn, one hdk.fetchBatch of the query's single-term keys to each
// key owner, as a coordinator's first lattice level would send it. It
// returns the median call time and the mean response size.
const storeFetchQueries = 500

func probeStoreFetch(c *cluster.Client, terms [][]string) (time.Duration, float64, error) {
	var d []float64
	bytes := 0
	for _, q := range terms[:storeFetchQueries] {
		byOwner := map[string][]string{}
		for _, t := range q {
			owner, ok := c.OwnerOf(t)
			if !ok {
				return 0, 0, fmt.Errorf("no owner for key %q", t)
			}
			byOwner[owner.Addr()] = append(byOwner[owner.Addr()], t)
		}
		owners := make([]string, 0, len(byOwner))
		for a := range byOwner {
			owners = append(owners, a)
		}
		sort.Strings(owners)
		for _, a := range owners {
			req := postings.EncodeKeyList(nil, byOwner[a])
			t0 := time.Now()
			resp, err := c.CallService(a, core.SvcFetchBatch, req)
			if err != nil {
				return 0, 0, fmt.Errorf("fetchBatch at %s: %w", a, err)
			}
			d = append(d, float64(time.Since(t0)))
			bytes += len(resp)
		}
	}
	return time.Duration(median(d)), float64(bytes) / float64(len(d)), nil
}

// selfCPU is the user + system time this process has used so far.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
