package experiments

import (
	"fmt"
	"io"
	"math"
	"runtime"
	"strconv"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// HDKStep is one (network size, DFmax) measurement.
type HDKStep struct {
	DFMax             int
	Replicas          int // effective replication factor (1 = single copy)
	StoredPerPeer     float64
	InsertedPerPeer   float64
	InsertedBySize    [core.MaxKeySize + 1]uint64
	KeysBySize        [core.MaxKeySize + 1]int
	KeysTotal         int
	QueryPostingsAvg  float64                      // Figure 6
	QueryProbesAvg    float64                      // lattice keys probed per query
	QueryRPCsAvg      float64                      // batched fetch RPCs per query (<= probes)
	QueryProbesBySize [core.MaxKeySize + 1]float64 // per-level probes per query
	QueryRPCsBySize   [core.MaxKeySize + 1]float64 // per-level batched RPCs per query
	QueryFailoversAvg float64                      // replica failovers per query
	OverlapAvgPercent float64                      // Figure 7
	NotifyMessages    uint64
	BuildNanos        int64   // wall-clock build time
	QueryNanosAvg     float64 // wall-clock ns per query
}

// Step is one experimental run (one network size) with all engines
// measured on the same collection prefix and query set. The ST series
// come from the engine configured as the single-term index
// (singleTermConfig), measured by the same pass as the HDK rows.
type Step struct {
	Peers      int
	Docs       int
	SampleSize int // D: total term occurrences

	STStoredPerPeer  float64 // Figures 3 and 4 ST series (the sweep checks inserted = stored)
	STQueryPostings  float64 // Figure 6 ST series
	STOverlapPercent float64 // Figure 7 ST series
	HDK              []HDKStep
	QueriesMeasured  int
	AvgQuerySize     float64
	CentralizedTop20 int // reference results available (sanity)
}

// Results carries the whole sweep.
type Results struct {
	Scale Scale
	Col   *corpus.Collection // the largest collection (steps use prefixes)
	Steps []Step
}

// Progress receives human-readable progress lines; nil discards them.
type Progress func(format string, args ...any)

func nopProgress(string, ...any) {}

// Run executes the full Section 5 sweep at the given scale: for every
// network size it indexes the (growing) collection with the engine
// configured as the distributed single-term baseline and as the HDK
// index at every DFmax, runs the shared query set against all of them,
// and records the Figures 3-7 quantities.
func Run(scale Scale, progress Progress) (*Results, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if progress == nil {
		progress = nopProgress
	}
	col, err := corpus.Generate(scale.GenParams())
	if err != nil {
		return nil, err
	}
	progress("corpus: %d docs, %d terms vocabulary, %d occurrences",
		col.M(), len(col.Vocab), col.SampleSize())
	res := &Results{Scale: scale, Col: col}
	for _, peers := range scale.PeerSteps {
		step, err := runStep(scale, col, peers, progress)
		if err != nil {
			return nil, fmt.Errorf("experiments: %d peers: %w", peers, err)
		}
		res.Steps = append(res.Steps, *step)
	}
	return res, nil
}

func runStep(scale Scale, full *corpus.Collection, peers int, progress Progress) (*Step, error) {
	docs := peers * scale.DocsPerPeer
	col := full.Slice(0, docs)
	step := &Step{Peers: peers, Docs: docs, SampleSize: col.SampleSize()}

	// Centralized BM25 reference (the paper's Terrier stand-in).
	cen := baseline.NewCentralized(col, rank.DefaultBM25())

	// Shared query set with the paper's >MinHits filter.
	qp := corpus.DefaultQueryParams(scale.NumQueries)
	qp.MinHits = scale.MinHits
	queries, err := corpus.GenerateQueries(col, qp, scale.Window, cen.ConjunctiveHits)
	if err != nil {
		return nil, fmt.Errorf("query generation: %w", err)
	}
	step.QueriesMeasured = len(queries)
	step.AvgQuerySize = corpus.AvgQuerySize(queries)
	reference := make([][]rank.Result, len(queries))
	for i, q := range queries {
		reference[i] = cen.Search(q, 20)
	}
	step.CentralizedTop20 = len(reference)

	// Distributed single-term baseline (singleTermConfig).
	st, err := measure(col, peers, singleTermConfig(col), queries, reference, false)
	if err != nil {
		return nil, err
	}
	if st.InsertedPerPeer != st.StoredPerPeer {
		return nil, fmt.Errorf("single-term index stores %.0f postings per peer but inserted %.0f: posting lists were truncated",
			st.StoredPerPeer, st.InsertedPerPeer)
	}
	step.STStoredPerPeer = st.StoredPerPeer
	step.STQueryPostings = st.QueryPostingsAvg
	step.STOverlapPercent = st.OverlapAvgPercent
	progress("%2d peers | %6d docs | ST: %.0f postings/peer, %.0f postings/query",
		peers, docs, step.STStoredPerPeer, step.STQueryPostings)

	// HDK engines, one per DFmax.
	for _, dfmax := range scale.DFMaxes {
		h, err := measure(col, peers, hdkConfig(scale, col, dfmax, scale.Replicas), queries, reference, true)
		if err != nil {
			return nil, err
		}
		step.HDK = append(step.HDK, *h)
		progress("%2d peers | %6d docs | HDK df=%d: %.0f stored/peer, %.0f inserted/peer, %.0f postings/query (%.1f probes in %.1f RPCs), %.0f%% overlap",
			peers, docs, dfmax, h.StoredPerPeer, h.InsertedPerPeer, h.QueryPostingsAvg, h.QueryProbesAvg, h.QueryRPCsAvg, h.OverlapAvgPercent)
	}
	return step, nil
}

// hdkConfig maps the scale onto the engine configuration at one DFmax,
// with the replication factor override when replicas > 0.
func hdkConfig(scale Scale, col *corpus.Collection, dfmax, replicas int) core.Config {
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = dfmax
	cfg.SMax = scale.SMax
	cfg.Window = scale.Window
	cfg.Ff = scale.Ff
	if replicas > 0 {
		cfg.ReplicationFactor = replicas
	}
	return cfg
}

// singleTermConfig is the paper's distributed single-term index (the ST
// series of Figures 3, 4, 6 and 7) as a special case of the HDK model:
// with smax 1 every key is one term, and with DFmax at the collection
// size and no very-frequent cutoff every term is discriminative, so its
// full posting list sits on the peer responsible for it. It keeps a
// single copy whatever the sweep's replication factor.
func singleTermConfig(col *corpus.Collection) core.Config {
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.SMax = 1
	cfg.DFMax = col.M()
	cfg.Ff = math.MaxInt
	return cfg
}

// buildScaledEngine assembles the engine for one measurement: an
// in-process ring of peers members, the round-robin document split, and
// all-cores build concurrency (the final index is provably identical to
// a serial build — merges commute; tested in core). BuildIndex is left
// to the caller, which times it.
func buildScaledEngine(col *corpus.Collection, peers int, cfg core.Config) (*core.Engine, []overlay.Member, error) {
	net := overlay.NewNetwork(transport.NewInProc())
	for i := 0; i < peers; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			return nil, nil, err
		}
	}
	nodes := net.Members()
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return nil, nil, err
	}
	for i, part := range col.SplitRoundRobin(peers) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			return nil, nil, err
		}
	}
	eng.SetConcurrency(runtime.NumCPU())
	return eng, nodes, nil
}

// counterAt reads the counter series name{label="v"} of a snapshot (0
// when the series is absent).
func counterAt(snap telemetry.Snapshot, name, label string, v int) uint64 {
	n, _ := snap.Counter(name, telemetry.L(label, strconv.Itoa(v)))
	return n
}

// levelDelta is how much a per-level query counter of one registry grew
// at lattice level size between two of its snapshots.
func levelDelta(before, after telemetry.Snapshot, name string, size int) uint64 {
	return counterAt(after, name, "level", size) - counterAt(before, name, "level", size)
}

// measure builds one index over the step's collection and runs the
// shared metric pass over the query set; timed adds the wall-clock query
// passes the HDK rows report.
func measure(col *corpus.Collection, peers int, cfg core.Config,
	queries []corpus.Query, reference [][]rank.Result, timed bool) (*HDKStep, error) {
	eng, nodes, err := buildScaledEngine(col, peers, cfg)
	if err != nil {
		return nil, err
	}
	buildStart := time.Now()
	if err := eng.BuildIndex(); err != nil {
		return nil, err
	}
	istats := eng.Stats()
	built := eng.Metrics().Snapshot()
	h := &HDKStep{
		DFMax:           cfg.DFMax,
		Replicas:        eng.Config().ReplicationFactor,
		StoredPerPeer:   float64(istats.StoredTotal) / float64(peers),
		InsertedPerPeer: float64(built.CounterSum("hdk_build_inserted_postings_total")) / float64(peers),
		KeysTotal:       istats.KeysTotal,
		NotifyMessages:  built.CounterSum("hdk_build_notify_keys_total"),
		BuildNanos:      time.Since(buildStart).Nanoseconds(),
	}
	for s := 1; s <= core.MaxKeySize; s++ {
		h.InsertedBySize[s] = counterAt(built, "hdk_build_inserted_postings_total", "round", s)
	}
	h.KeysBySize = istats.KeysBySize

	// Metric pass (untimed): accumulates the deterministic paper metrics
	// plus the overlap scoring, whose per-query cost must not pollute the
	// wall-clock measurement below.
	var fetched uint64
	var probes, rpcs, failovers int
	var overlap float64
	for i, q := range queries {
		res, err := eng.Search(q, nodes[i%peers], 20)
		if err != nil {
			return nil, err
		}
		fetched += res.FetchedPosts
		probes += res.ProbedKeys
		rpcs += res.RPCs
		failovers += res.Failovers
		overlap += rank.Overlap(reference[i], res.Results, 20)
	}
	if len(queries) == 0 {
		return h, nil
	}
	n := float64(len(queries))
	h.QueryPostingsAvg = float64(fetched) / n
	h.QueryProbesAvg = float64(probes) / n
	h.QueryRPCsAvg = float64(rpcs) / n
	h.QueryFailoversAvg = float64(failovers) / n
	h.OverlapAvgPercent = overlap / n
	after := eng.Metrics().Snapshot()
	for s := 1; s <= core.MaxKeySize; s++ {
		h.QueryProbesBySize[s] = float64(levelDelta(built, after, "hdk_query_probes_total", s)) / n
		h.QueryRPCsBySize[s] = float64(levelDelta(built, after, "hdk_query_fetch_rpcs_total", s)) / n
	}
	if !timed {
		return h, nil
	}
	// Wall clock is the one nondeterministic metric the bench regression
	// gate checks; on small configs the whole sweep lasts a few
	// milliseconds, so a single GC or scheduler stall lands as a phantom
	// 10x "regression". Two identical timing-only passes (queries are
	// read-only and deterministic), keeping the faster, filter exactly
	// those one-off stalls.
	var queryNanos int64
	for pass := 0; pass < 2; pass++ {
		start := time.Now()
		for i, q := range queries {
			if _, err := eng.Search(q, nodes[i%peers], 20); err != nil {
				return nil, err
			}
		}
		if d := time.Since(start).Nanoseconds(); pass == 0 || d < queryNanos {
			queryNanos = d
		}
	}
	h.QueryNanosAvg = float64(queryNanos) / n
	return h, nil
}

// WriteSummary renders a one-paragraph sweep summary.
func (r *Results) WriteSummary(w io.Writer) {
	last := r.Steps[len(r.Steps)-1]
	fmt.Fprintf(w, "Sweep %q: %d steps up to %d peers / %d docs.\n",
		r.Scale.Name, len(r.Steps), last.Peers, last.Docs)
	for _, h := range last.HDK {
		ratio := h.StoredPerPeer / last.STStoredPerPeer
		fmt.Fprintf(w, "  DFmax=%d: HDK stores %.1fx the ST postings; %.0f vs %.0f postings/query (%.1fx less retrieval traffic); overlap %.0f%% (ST %.0f%%).\n",
			h.DFMax, ratio, h.QueryPostingsAvg, last.STQueryPostings,
			last.STQueryPostings/h.QueryPostingsAvg, h.OverlapAvgPercent, last.STOverlapPercent)
	}
}
