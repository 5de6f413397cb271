package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"sort"
	"strings"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
)

// Sizing shared by every workload. The corpus shape is the repo's
// MediumScale (internal/experiments/scale.go) copied by value, so a later
// edit to the experiment scales cannot silently change what the benchmark
// measures.
const (
	nodes       = 3
	replicas    = 2
	docsPerNode = 1000
	poolSize    = 2000 // distinct queries per pool
	topK        = 10
	zipfS       = 1.0
	zipfCache   = 256 // per-daemon result-cache entries on search.zipf: ~1/8 of the pool
)

func genParams(seed int64) corpus.GenParams {
	return corpus.GenParams{
		NumDocs: nodes * docsPerNode, VocabSize: 30000, AvgDocLen: 120,
		Skew: 1.05, NumTopics: 60, TopicTerms: 800, TopicMix: 0.4,
		Seed: derive(seed, streamCorpus),
	}
}

func engineConfig(col *corpus.Collection) core.Config {
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax, cfg.Window, cfg.SMax, cfg.Ff = 40, 12, 3, 60000
	cfg.ReplicationFactor = replicas
	return cfg
}

// Streams of the one --seed: every random input draws from its own
// stream, so adding a consumer never shifts another's values.
const (
	streamCorpus = iota + 1
	streamPool
	streamLongPool
	streamOffsets
	streamZipf // + client index
)

// derive maps (seed, stream) to an independent 63-bit seed (splitmix64).
func derive(seed int64, stream int) int64 {
	z := uint64(seed) + uint64(stream)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64((z ^ (z >> 31)) >> 1)
}

// inputs is everything generated from the seed before any daemon starts:
// the collection, the in-process reference engine the daemons' answers
// must equal, and the workload's query pool in coordinator wire form.
type inputs struct {
	col   *corpus.Collection
	cfg   core.Config
	cen   *baseline.Centralized
	ref   *core.Engine
	pool  []corpus.Query
	terms [][]string // pool[i] rendered with ref.QueryTerms
}

func makeInputs(seed int64, long bool) (*inputs, error) {
	col, err := corpus.Generate(genParams(seed))
	if err != nil {
		return nil, err
	}
	in := &inputs{col: col, cfg: engineConfig(col)}
	in.cen = baseline.NewCentralized(col, in.cfg.BM25)
	if in.ref, err = buildReference(col, in.cfg); err != nil {
		return nil, fmt.Errorf("reference engine: %w", err)
	}
	qp := corpus.QueryParams{MinTerms: 2, MaxTerms: 8, MinHits: 8, Seed: derive(seed, streamPool)}
	if long {
		qp = corpus.QueryParams{MinTerms: 6, MaxTerms: 8, MinHits: 0, Seed: derive(seed, streamLongPool)}
	}
	if err := in.fillPool(qp); err != nil {
		return nil, err
	}
	return in, nil
}

// fillPool draws queries until poolSize distinct ones (by rendered terms)
// are held; single-term renderings are dropped, as the paper's log drops
// single-term queries.
func (in *inputs) fillPool(qp corpus.QueryParams) error {
	qp.NumQueries = 2 * poolSize
	drawn, err := corpus.GenerateQueries(in.col, qp, in.cfg.Window, in.cen.ConjunctiveHits)
	if err != nil {
		return fmt.Errorf("query pool: %w", err)
	}
	seen := make(map[string]bool, poolSize)
	for _, q := range drawn {
		terms := in.ref.QueryTerms(q)
		id := strings.Join(terms, " ")
		if len(terms) < 2 || seen[id] {
			continue
		}
		seen[id] = true
		in.pool = append(in.pool, q)
		in.terms = append(in.terms, terms)
		if len(in.pool) == poolSize {
			return nil
		}
	}
	return fmt.Errorf("query pool: only %d distinct queries of %d drawn, want %d", len(in.pool), len(drawn), poolSize)
}

// buildReference is the single-process engine over the same collection
// and configuration: the answers every daemon-coordinated search must
// reproduce bit for bit.
func buildReference(col *corpus.Collection, cfg core.Config) (*core.Engine, error) {
	net := overlay.NewNetwork(transport.NewInProc())
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return nil, err
	}
	for i, part := range col.SplitRoundRobin(nodes) {
		n, err := net.AddNode(fmt.Sprintf("ref-%d", i))
		if err != nil {
			return nil, err
		}
		if _, err := eng.AddPeer(n, part); err != nil {
			return nil, err
		}
	}
	return eng, eng.BuildIndex()
}

// zipfSampler draws pool ranks with P(rank r) ∝ 1/(r+1)^s by inverting
// the cumulative distribution; rank r is pool index r (the pool order is
// already random).
type zipfSampler struct {
	cdf []float64
	rng *rand.Rand
}

func newZipfSampler(n int, s float64, seed int64) *zipfSampler {
	cdf := make([]float64, n)
	sum := 0.0
	for r := range cdf {
		sum += 1 / math.Pow(float64(r+1), s)
		cdf[r] = sum
	}
	for r := range cdf {
		cdf[r] /= sum
	}
	return &zipfSampler{cdf: cdf, rng: rand.New(rand.NewPCG(uint64(seed), 0))}
}

func (z *zipfSampler) next() int {
	i := sort.SearchFloat64s(z.cdf, z.rng.Float64())
	if i == len(z.cdf) {
		i--
	}
	return i
}

// clientOffsets gives each closed-loop client its starting position in
// the pool on the uniform workloads; clients then walk the pool in order,
// which covers it exactly uniformly.
func clientOffsets(seed int64, clients, n int) []int {
	rng := rand.New(rand.NewPCG(uint64(derive(seed, streamOffsets)), 0))
	out := make([]int, clients)
	for i := range out {
		out[i] = rng.IntN(n)
	}
	return out
}
