// Repository-level benchmarks: one per table and figure of the paper's
// evaluation, plus sweeps of the model's window size and maximal key
// size.
// Each figure bench regenerates its artifact from a shared, memoized
// experiment sweep and reports the headline quantities as custom metrics,
// so `go test -bench=.` doubles as the reproduction harness at bench
// scale. cmd/hdkbench runs the same code at larger scales.
package repro

import (
	"fmt"
	"io"
	"sync"
	"testing"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/zipfmodel"
)

// benchScale keeps the one-time sweep under ~10 seconds while spanning
// enough network growth for the curves' shape to show.
func benchScale() experiments.Scale {
	s := experiments.SmallScale()
	s.Name = "bench"
	s.PeerSteps = []int{4, 8, 12}
	s.DocsPerPeer = 80
	s.NumQueries = 25
	s.MinHits = 2
	s.DFMaxes = []int{8, 10}
	return s
}

var sweepOnce struct {
	sync.Once
	res *experiments.Results
	err error
}

func sweep(b *testing.B) *experiments.Results {
	b.Helper()
	sweepOnce.Do(func() {
		sweepOnce.res, sweepOnce.err = experiments.Run(benchScale(), nil)
	})
	if sweepOnce.err != nil {
		b.Fatal(sweepOnce.err)
	}
	return sweepOnce.res
}

func BenchmarkTable1CollectionStats(b *testing.B) {
	res := sweep(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Table1(res).Fprint(io.Discard)
	}
	b.ReportMetric(float64(res.Col.M()), "docs")
	b.ReportMetric(res.Col.AvgDocLen(), "avg-doc-len")
}

func BenchmarkTable2Parameters(b *testing.B) {
	scale := benchScale()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Table2(scale).Fprint(io.Discard)
	}
}

func BenchmarkFig2ZipfModel(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Fig2().Fprint(io.Discard)
	}
	d, err := zipfmodel.NewDist(1.5, 1e8, 1<<20)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(d.RankFor(1e5)), "rf-rank")
}

func BenchmarkFig3StoredPostings(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig3(res).Fprint(io.Discard)
	}
	last := res.Steps[len(res.Steps)-1]
	b.ReportMetric(last.STStoredPerPeer, "st-stored/peer")
	b.ReportMetric(last.HDK[0].StoredPerPeer, "hdk-stored/peer")
	b.ReportMetric(last.HDK[0].StoredPerPeer/last.STStoredPerPeer, "hdk/st-ratio")
}

func BenchmarkFig4InsertedPostings(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig4(res).Fprint(io.Discard)
	}
	last := res.Steps[len(res.Steps)-1]
	b.ReportMetric(last.HDK[0].InsertedPerPeer, "hdk-inserted/peer")
	b.ReportMetric(last.HDK[0].InsertedPerPeer/last.HDK[0].StoredPerPeer, "inserted/stored")
}

func BenchmarkFig5IndexRatios(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig5(res).Fprint(io.Discard)
	}
	last := res.Steps[len(res.Steps)-1]
	d := float64(last.SampleSize)
	b.ReportMetric(float64(last.HDK[0].InsertedBySize[1])/d, "IS1/D")
	b.ReportMetric(float64(last.HDK[0].InsertedBySize[2])/d, "IS2/D")
	b.ReportMetric(float64(last.HDK[0].InsertedBySize[3])/d, "IS3/D")
}

func BenchmarkFig6RetrievalTraffic(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig6(res).Fprint(io.Discard)
	}
	first, last := res.Steps[0], res.Steps[len(res.Steps)-1]
	b.ReportMetric(last.STQueryPostings, "st-postings/query")
	b.ReportMetric(last.HDK[0].QueryPostingsAvg, "hdk-postings/query")
	b.ReportMetric(last.STQueryPostings/first.STQueryPostings, "st-growth")
	// Batched fan-out: lattice probes collapse into per-owner RPCs.
	b.ReportMetric(last.HDK[0].QueryProbesAvg, "hdk-probes/query")
	b.ReportMetric(last.HDK[0].QueryRPCsAvg, "hdk-rpcs/query")
	b.ReportMetric(last.HDK[0].QueryProbesAvg/last.HDK[0].QueryRPCsAvg, "probe/rpc-ratio")
}

func BenchmarkFig7Top20Overlap(b *testing.B) {
	res := sweep(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		experiments.Fig7(res).Fprint(io.Discard)
	}
	last := res.Steps[len(res.Steps)-1]
	b.ReportMetric(last.STOverlapPercent, "st-overlap%")
	b.ReportMetric(last.HDK[0].OverlapAvgPercent, "hdk-overlap-lo%")
	b.ReportMetric(last.HDK[1].OverlapAvgPercent, "hdk-overlap-hi%")
}

func BenchmarkFig8TrafficProjection(b *testing.B) {
	m := analysis.PaperTrafficModel()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		experiments.Fig8().Fprint(io.Discard)
	}
	b.ReportMetric(m.Ratio(653546), "ratio@wikipedia")
	b.ReportMetric(m.Ratio(1e9), "ratio@1e9")
}

// --- ablations ------------------------------------------------------------

// ablationCollection builds the shared small collection for the ablation
// benches.
var ablationOnce struct {
	sync.Once
	col *corpus.Collection
	err error
}

func ablationCol(b *testing.B) *corpus.Collection {
	b.Helper()
	ablationOnce.Do(func() {
		p := corpus.GenParams{
			NumDocs: 150, VocabSize: 500, AvgDocLen: 50,
			Skew: 1.0, NumTopics: 8, TopicTerms: 50, TopicMix: 0.5, Seed: 3,
		}
		ablationOnce.col, ablationOnce.err = corpus.Generate(p)
	})
	if ablationOnce.err != nil {
		b.Fatal(ablationOnce.err)
	}
	return ablationOnce.col
}

func buildAblation(b *testing.B, mutate func(*core.Config)) *core.Engine {
	b.Helper()
	col := ablationCol(b)
	net := overlay.NewNetwork(transport.NewInProc())
	var nodes []*overlay.Node
	for i := 0; i < 4; i++ {
		n, err := net.AddNode(fmt.Sprintf("peer-%d", i))
		if err != nil {
			b.Fatal(err)
		}
		nodes = append(nodes, n)
	}
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = 8
	cfg.Window = 8
	cfg.Ff = 1 << 30
	if mutate != nil {
		mutate(&cfg)
	}
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		b.Fatal(err)
	}
	for i, part := range col.SplitRoundRobin(4) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			b.Fatal(err)
		}
	}
	return eng
}

// BenchmarkAblationRedundancyFiltering measures the full index build with
// the paper's redundancy filtering, reporting the key count (ARCHITECTURE
// §3 records what the build gave without the filter).
func BenchmarkAblationRedundancyFiltering(b *testing.B) {
	var keys int
	for i := 0; i < b.N; i++ {
		eng := buildAblation(b, nil)
		if err := eng.BuildIndex(); err != nil {
			b.Fatal(err)
		}
		keys = eng.Stats().KeysTotal
	}
	b.ReportMetric(float64(keys), "keys")
}

// BenchmarkAblationWindow sweeps the proximity window: larger windows
// generate more keys (Theorem 3's binom(w-1, s-1) factor).
func BenchmarkAblationWindow(b *testing.B) {
	for _, w := range []int{4, 8, 16} {
		b.Run(fmt.Sprintf("w=%d", w), func(b *testing.B) {
			var keys int
			for i := 0; i < b.N; i++ {
				eng := buildAblation(b, func(c *core.Config) { c.Window = w })
				if err := eng.BuildIndex(); err != nil {
					b.Fatal(err)
				}
				keys = eng.Stats().KeysTotal
			}
			b.ReportMetric(float64(keys), "keys")
		})
	}
}

// BenchmarkAblationSMax sweeps the maximal key size.
func BenchmarkAblationSMax(b *testing.B) {
	for _, smax := range []int{1, 2, 3} {
		b.Run(fmt.Sprintf("smax=%d", smax), func(b *testing.B) {
			var stored int
			for i := 0; i < b.N; i++ {
				eng := buildAblation(b, func(c *core.Config) { c.SMax = smax })
				if err := eng.BuildIndex(); err != nil {
					b.Fatal(err)
				}
				stored = eng.Stats().StoredTotal
			}
			b.ReportMetric(float64(stored), "stored-postings")
		})
	}
}

// BenchmarkSearch measures end-to-end query latency against a built
// index (the response-time property Section 2 claims for structured
// overlays) at the configured per-level fetch fan-out. The rpcs/query vs
// probes/query metrics expose the message-count reduction of batching.
// The in-process transport has zero call latency, so this measures the
// traversal's CPU and allocations, not the latency the fan-out hides on a
// real network (internal/transport TCP).
func BenchmarkSearch(b *testing.B) {
	eng := buildAblation(b, nil)
	if err := eng.BuildIndex(); err != nil {
		b.Fatal(err)
	}
	col := ablationCol(b)
	qp := corpus.DefaultQueryParams(20)
	qp.MinHits = 0
	queries, err := corpus.GenerateQueries(col, qp, 8, nil)
	if err != nil {
		b.Fatal(err)
	}
	start := eng.Network().Members()[0]
	b.ReportAllocs()
	b.ResetTimer()
	var fetched uint64
	var probes, rpcs int
	for i := 0; i < b.N; i++ {
		res, err := eng.Search(queries[i%len(queries)], start, 20)
		if err != nil {
			b.Fatal(err)
		}
		fetched += res.FetchedPosts
		probes += res.ProbedKeys
		rpcs += res.RPCs
	}
	n := float64(b.N)
	b.ReportMetric(float64(fetched)/n, "postings/query")
	b.ReportMetric(float64(probes)/n, "probes/query")
	b.ReportMetric(float64(rpcs)/n, "rpcs/query")
	if rpcs > 0 {
		b.ReportMetric(float64(probes)/float64(rpcs), "probe/rpc-ratio")
	}
}
