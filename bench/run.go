package main

import (
	"fmt"
	"path/filepath"
	"sort"
	"syscall"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// Shape of one run. Every workload boots its own fleet and is runnable
// alone. The set-up is repeated so that setup_s is a median, not one
// draw; the last fleet is the one the requests run against.
const (
	setups   = 3
	warmUp   = 2 * time.Second // discarded: connections dial, caches fill
	sliceLen = 2 * time.Second // the window is summarized per slice, then by the median slice
)

type options struct {
	seed    int64
	seconds int
	trace   bool
	outDir  string
	logf    func(format string, a ...any) // progress, to stderr
}

// result is one workload's run: every metric the mode reports, by name,
// and the request counts of the measured stretch.
type result struct {
	workload  string
	seed      int64
	attempted int
	failed    int
	metrics   map[string]float64
	info      []string // report lines beyond the named metrics
}

// runWorkload is the whole of one run: inputs from the seed, set-up,
// correctness check, request stream, assertions. It returns an error, and
// the caller prints no metric, if any check fails.
func runWorkload(f *fleet, w workload, o options) (*result, error) {
	t0 := time.Now()
	in, err := makeInputs(o.seed, w.long)
	if err != nil {
		return nil, err
	}
	o.logf("%s: inputs and reference engine in %.1fs", w.name, time.Since(t0).Seconds())

	f.tag = w.name
	defer f.stop()
	var totals []float64
	var c *cluster.Client
	var tr *transport.TCP
	var st setupTimes
	for i := 1; i <= setups; i++ {
		if tr != nil {
			tr.Close()
			f.stop()
		}
		if c, tr, st, err = setUp(f, w, in); err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		totals = append(totals, st.total.Seconds())
		o.logf("%s: set-up %d/%d in %.2fs", w.name, i, setups, st.total.Seconds())
	}
	defer tr.Close()
	if w.durable {
		// The batch-fsync build leaves tens of megabytes of dirty pages;
		// flush them now so that the kernel's write-back does not run
		// under the measured window.
		syscall.Sync()
	}

	addrs := f.addrs()
	res := &result{workload: w.name, seed: o.seed, metrics: map[string]float64{}}
	m := res.metrics

	afterSetup, err := snapshots(tr, addrs)
	if err != nil {
		return nil, err
	}
	var disk int64
	if w.durable {
		if disk, err = dirBytes(f.dataDir); err != nil {
			return nil, err
		}
	}
	fig, err := checkCluster(c, addrs, w, in)
	if err != nil {
		return nil, fmt.Errorf("correctness check: %w", err)
	}
	o.logf("%s: %d queries bit-identical to the reference", w.name, len(in.pool))

	m["setup_s"] = median(totals)
	m["postings_per_query"] = fig.postingsPerQuery
	m["overlap_at_10"] = fig.overlapAt10
	m["stored_postings_per_doc"] = fig.storedPerDoc
	m["core.probes_per_query"] = fig.probesPerQuery
	m["core.fetch_rpcs_per_query"] = fig.fetchRPCs
	m["core.rounds_per_query"] = fig.rounds
	m["core.failovers"] = float64(fig.failovers)
	buildLayers(m, st, afterSetup, in.col.M(), disk)

	if o.trace {
		rtt, err := probeRTT(tr, addrs)
		if err != nil {
			return nil, err
		}
		fetch, fetchBytes, err := probeStoreFetch(c, in.terms)
		if err != nil {
			return nil, err
		}
		m["transport.rtt_us"] = float64(rtt) / 1e3
		m["core.store_fetch_us"] = float64(fetch) / 1e3
		m["core.store_fetch_bytes"] = fetchBytes
	}

	// The stream: warm-up, then the measured stretch with tracing off. A
	// traced run halves it and sends the second half with the trace flag,
	// so that the two halves' medians give the tracing overhead.
	window := time.Duration(o.seconds) * time.Second
	phases := []phase{{0, warmUp, false}, {warmUp, warmUp + window, false}}
	if o.trace {
		half := warmUp + window/2
		phases = []phase{{0, warmUp, false}, {warmUp, half, false}, {half, warmUp + window, true}}
	}
	snaps := make([][]telemetry.Snapshot, len(phases)+1)
	cpu0 := selfCPU()
	load, err := runLoad(w, o.seed, addrs, in.terms, phases, func(i int) error {
		var err error
		snaps[i], err = snapshots(tr, addrs)
		return err
	})
	if err != nil {
		return nil, err
	}
	m["proc.client_cpu_s"] = (selfCPU() - cpu0).Seconds()
	last := snaps[len(phases)]

	// Stated assertions, over everything after the warm-up.
	if n := counterDelta(snaps[1], last, seriesAppends); n != 0 {
		return nil, fmt.Errorf("assertion: %d durable appends while only searching", n)
	}
	lookups := counterDelta(snaps[1], last, seriesCacheHits) + counterDelta(snaps[1], last, seriesCacheMisses)
	if w.noCache && lookups != 0 {
		return nil, fmt.Errorf("assertion: %d result-cache lookups on a NoCache workload", lookups)
	}
	if !w.noCache && counterDelta(snaps[1], last, seriesCacheHits) == 0 {
		return nil, fmt.Errorf("assertion: no result-cache hit on the cached workload")
	}

	ok, failed := load.counts(warmUp, warmUp+window)
	res.attempted, res.failed = ok+failed, failed
	if failed > 0 {
		res.info = append(res.info, fmt.Sprintf("first failure: %v", load.firstErr))
	}

	measured := phases[1]
	slices := windowStats(load.samples, measured.from, measured.to, max(1, int((measured.to-measured.from)/sliceLen)))
	m["query_qps"] = medianOf(slices, func(s sliceStats) float64 { return s.qps })
	m["query_p50_ms"] = medianOf(slices, func(s sliceStats) float64 { return s.p50 })
	m["query_p99_ms"] = medianOf(slices, func(s sliceStats) float64 { return s.p99 })
	res.info = append(res.info, sliceLine(slices), wholeWindowLine(load.samples, measured, len(slices)))
	windowLayers(m, snaps[1], snaps[2])

	if o.trace {
		if err := traceReport(res, w, o, load, phases[2], st); err != nil {
			return nil, err
		}
	}

	u := f.stop()
	m["proc.daemon_cpu_s"] = u.cpu.Seconds()
	m["proc.daemon_rss_mb"] = float64(u.maxRSS) / (1 << 20)
	return res, nil
}

// sliceLine lists the slices' throughput, so that a disturbed stretch of
// the window can be seen for what it is.
func sliceLine(slices []sliceStats) string {
	line := "req/s per slice:"
	for _, s := range slices {
		line += fmt.Sprintf(" %.0f", s.qps)
	}
	return line
}

// wholeWindowLine reports the window without slicing, as information: the
// sample count, the median, and the highest percentile that still has ten
// samples beyond it.
func wholeWindowLine(samples []sample, p phase, slices int) string {
	var lat []float64
	for _, s := range samples {
		if s.done >= p.from && s.done < p.to {
			lat = append(lat, float64(s.latency)/1e6)
		}
	}
	sort.Float64s(lat)
	line := fmt.Sprintf("whole window: %d samples in %d slices, %.0f req/s, p50 %.4f ms",
		len(lat), slices, float64(len(lat))/(p.to-p.from).Seconds(), quantile(lat, 0.5))
	if hp := highestPercentile(len(lat)); hp > 0 {
		line += fmt.Sprintf(", p%g %.4f ms", hp*100, quantile(lat, hp))
	}
	return line
}

// traceReport folds the traced stretch into the per-span table, checks
// that the self times account for the client-observed total, writes the
// trace file and fills in the trace.* metrics.
func traceReport(res *result, w workload, o options, load *loadResult, traced phase, st setupTimes) error {
	m := res.metrics
	var reqs []requestTrace
	for _, rt := range load.spans {
		if rt.start >= traced.from && rt.start+rt.latency < traced.to {
			reqs = append(reqs, rt)
		}
	}
	if len(reqs) == 0 {
		return fmt.Errorf("the traced stretch completed no request")
	}
	rows, rootTotal := spanTable(reqs)
	var selfSum time.Duration
	for _, n := range spanNames {
		m[spanMetric(n)] = 0
	}
	res.info = append(res.info, fmt.Sprintf("%-16s %9s %12s %12s %7s", "span", "count", "mean_us", "self_us/req", "share"))
	for _, r := range rows {
		selfSum += r.self
		share := float64(r.self) / float64(rootTotal)
		name := spanMetric(r.name)
		if _, known := m[name]; !known {
			name = spanMetric(daemonRoot)
		}
		m[name] += share
		res.info = append(res.info, fmt.Sprintf("%-16s %9d %12.2f %12.2f %6.1f%%",
			r.name, r.count, float64(r.total)/float64(r.count)/1e3, float64(r.self)/float64(len(reqs))/1e3, 100*share))
	}
	m["trace.requests"] = float64(len(reqs))
	m["trace.client_search_us"] = float64(rootTotal) / float64(len(reqs)) / 1e3
	m["trace.self_sum_ratio"] = float64(selfSum) / float64(rootTotal)
	if d := m["trace.self_sum_ratio"] - 1; d > 0.01 || d < -0.01 {
		return fmt.Errorf("assertion: span self times sum to %.4f of the %s total", m["trace.self_sum_ratio"], rootSpan)
	}

	tracedP50 := windowStats(load.samples, traced.from, traced.to, 1)[0].p50
	untracedP50 := m["query_p50_ms"]
	m["trace.overhead_ratio"] = tracedP50 / untracedP50

	spans := st.spans()
	for i, rt := range reqs[:min(len(reqs), traceFileRequests)] {
		spans = append(spans, requestSpans(i, rt)...)
	}
	path := filepath.Join(o.outDir, "trace-"+w.name+".json")
	if err := writeTraceFile(path, w.name, o.seed, spans); err != nil {
		return err
	}
	res.info = append(res.info, fmt.Sprintf("trace file: %s (%d spans)", path, len(spans)))
	return nil
}
