package main

// workload is one named traffic mix. The names are cited by later issues
// and by BENCHMARK.json, which also carries each one's why.
type workload struct {
	name    string
	durable bool // daemons run with -data and -fsync batch
	cache   int  // -search-cache entries per daemon (0 disables the result cache)
	noCache bool // every request sets NoCache
	long    bool // 6-8 term pool instead of the paper mix
	zipf    bool // Zipf(1.0) draws instead of a uniform walk
}

var workloads = []workload{
	{name: "search.uncached", noCache: true},
	{name: "search.long", noCache: true, long: true},
	{name: "search.zipf", cache: zipfCache, zipf: true},
	{name: "build.stream", durable: true, noCache: true},
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// metric is one reported figure. BENCHMARK.json lists the same names and
// units, and for the end-to-end ones the regression bound; spec_test.go
// holds the two lists together.
type metric struct {
	name   string
	unit   string
	higher bool // a higher value is better
}

// endToEnd is what a user of the cluster sees: how long until it serves,
// how fast and at what latency it answers, what a query moves over the
// network, how good the answer is and what the index costs to hold.
var endToEnd = []metric{
	{"setup_s", "s", false},
	{"query_qps", "req/s", true},
	{"query_p50_ms", "ms", false},
	{"query_p99_ms", "ms", false},
	{"postings_per_query", "count", false},
	{"overlap_at_10", "ratio", true},
	{"stored_postings_per_doc", "count", false},
}

// daemonRoot is the root of the span tree a coordinating daemon returns.
const daemonRoot = "coordinate"

// spanNames are the span names a traced request carries today, root
// first. A span of any other name (one added to the daemons after this
// list was written) is counted under daemonRoot: daemon time that no
// known span accounts for.
var spanNames = []string{rootSpan, daemonRoot, "cache", "admission", "level", "route", "fetch", "union", "rank"}

// perLayer is one layer's own figure each; the layer is the prefix, which
// is the repo package the number belongs to (proc and trace aside).
var perLayer = func() []metric {
	ms := []metric{
		{"transport.rtt_us", "us", false},
		{"transport.call_p50_us", "us", false},
		{"transport.call_p99_us", "us", false},
		{"transport.pool_reuse_ratio", "ratio", true},
		{"cluster.admission_wait_p50_us", "us", false},
		{"cluster.admission_wait_p99_us", "us", false},
		{"cluster.shed", "count", false},
		{"cluster.cache_hit_ratio", "ratio", true},
		{"cluster.ingest_s", "s", false},
		{"cluster.build_s", "s", false},
		{"cluster.build_rounds_s", "s", false},
		{"cluster.build_docs_per_s", "docs/s", true},
		{"core.coordination_p50_us", "us", false},
		{"core.coordination_p99_us", "us", false},
		{"core.level1_us", "us", false},
		{"core.level2_us", "us", false},
		{"core.level3_us", "us", false},
		{"core.probes_per_query", "count", false},
		{"core.fetch_rpcs_per_query", "count", false},
		{"core.rounds_per_query", "count", false},
		{"core.failovers", "count", false},
		{"core.store_fetch_us", "us", false},
		{"core.store_fetch_bytes", "bytes", false},
		{"core.insert_rpcs", "count", false},
		{"durable.append_bytes_per_doc", "bytes", false},
		{"durable.compactions", "count", false},
		{"durable.disk_bytes_per_doc", "bytes", false},
		{"proc.daemon_cpu_s", "s", false},
		{"proc.client_cpu_s", "s", false},
		{"proc.daemon_rss_mb", "MB", false},
		{"trace.requests", "count", true},
		{"trace.overhead_ratio", "ratio", false},
		{"trace.client_search_us", "us", false},
		{"trace.self_sum_ratio", "ratio", true},
	}
	for _, n := range spanNames {
		ms = append(ms, metric{spanMetric(n), "ratio", false})
	}
	return ms
}()

// spanMetric names one span name's share of the traced requests'
// client-observed time: its summed self time over the summed
// client.search durations. The shares of one run sum to
// trace.self_sum_ratio.
func spanMetric(span string) string {
	if span == rootSpan {
		span = "client_search" // a metric name's layer prefix ends at the first dot
	}
	return "trace." + span + "_self_share"
}
