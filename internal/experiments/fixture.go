package experiments

import (
	"fmt"
	"reflect"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file holds the set-up every multi-process scenario (TCPServe,
// TCPIngestResume, Chaos) starts from: the synthetic corpus and its
// queries, the engine config, the in-process reference engine every
// cluster answer is compared against (the paper's §5 method), the
// reference answers, and a client dialled to the running cluster —
// plus the parity passes and counter sums the scenarios share.

// ClusterOpts is the cluster shape and workload every multi-process
// scenario shares; scenario options embed it.
type ClusterOpts struct {
	Nodes    int // daemon processes
	Replicas int // replication factor R
	Docs     int // corpus size built initially
	DFMax    int
	Window   int
	Queries  int // distinct queries
	TopK     int
	Seed     int64 // corpus and query seed
}

// DefaultClusterOpts is the CI-gated cluster: 5 processes at R=3 over
// 150 documents and 30 queries.
func DefaultClusterOpts() ClusterOpts {
	return ClusterOpts{
		Nodes: 5, Replicas: 3, Docs: 150, DFMax: 8, Window: 8,
		Queries: 30, TopK: 10, Seed: 11,
	}
}

// fixtureChunkBytes is the client's hdk.ingest chunk target: small, so
// a streamed shard spans many chunks and the ingest-resume scenario's
// interruption point (killAfterChunks) falls well inside the stream.
// Only streamed builds read it.
const fixtureChunkBytes = 2 << 10

// fixture is one scenario's starting state.
type fixture struct {
	ClusterOpts
	tr       transport.Transport
	addrs    []string // daemon addresses in process (start) order
	progress Progress

	full      *corpus.Collection // Docs plus the extra documents later waves stage
	col       *corpus.Collection // the first Docs documents of full: the initial build
	queries   []corpus.Query
	cfg       core.Config
	ref       *core.Engine // in-process reference over col
	refPeers  []*core.Peer // kept so later waves can be staged on the reference too
	refOrigin overlay.Member
	want      [][]rank.Result // the reference's answers to queries
	c         *cluster.Client
}

// newFixture generates Docs+extraDocs documents, the queries over the
// first Docs and the engine config, builds the in-process reference
// over the first Docs, answers every query on it, and dials the
// cluster at addrs.
func newFixture(tr transport.Transport, addrs []string, opts ClusterOpts, extraDocs int, progress Progress) (*fixture, error) {
	if progress == nil {
		progress = nopProgress
	}
	if len(addrs) != opts.Nodes {
		return nil, fmt.Errorf("experiments: %d addresses for %d nodes", len(addrs), opts.Nodes)
	}
	f := &fixture{ClusterOpts: opts, tr: tr, addrs: addrs, progress: progress}
	var err error
	f.full, err = corpus.Generate(corpus.GenParams{
		NumDocs: opts.Docs + extraDocs, VocabSize: 2000, AvgDocLen: 50,
		Skew: 1.0, NumTopics: 8, TopicTerms: 80, TopicMix: 0.5, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	f.col = f.full.Slice(0, opts.Docs)
	cen := baseline.NewCentralized(f.col, rank.DefaultBM25())
	qp := corpus.DefaultQueryParams(opts.Queries)
	qp.MinHits = 2
	if f.queries, err = corpus.GenerateQueries(f.col, qp, opts.Window, cen.ConjunctiveHits); err != nil {
		return nil, fmt.Errorf("query generation: %w", err)
	}
	f.cfg = core.DefaultConfig(rank.CollectionStats{NumDocs: f.col.M(), AvgDocLen: f.col.AvgDocLen()})
	f.cfg.DFMax = opts.DFMax
	f.cfg.Window = opts.Window
	f.cfg.ReplicationFactor = opts.Replicas

	net := overlay.NewNetwork(transport.NewInProc())
	nodes := make([]overlay.Member, opts.Nodes)
	for i := range nodes {
		if nodes[i], err = net.AddNode(fmt.Sprintf("ref-%d", i)); err != nil {
			return nil, err
		}
	}
	if f.ref, f.refPeers, err = f.buildOn(net, nodes); err != nil {
		return nil, err
	}
	f.refOrigin = net.Members()[0]
	if f.want, err = f.answers(); err != nil {
		return nil, err
	}
	f.c, err = cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs, ChunkBytes: fixtureChunkBytes})
	if err != nil {
		return nil, err
	}
	return f, nil
}

// buildOn builds an engine over net holding col, split round-robin over
// members (one peer each, in order), and returns it with its peers.
func (f *fixture) buildOn(net overlay.Fabric, members []overlay.Member) (*core.Engine, []*core.Peer, error) {
	eng, err := core.NewEngine(net, f.cfg, f.full.Vocab, f.full.TermFrequencies())
	if err != nil {
		return nil, nil, err
	}
	peers := make([]*core.Peer, len(members))
	for i, part := range f.col.SplitRoundRobin(len(members)) {
		if peers[i], err = eng.AddPeer(members[i], part); err != nil {
			return nil, nil, err
		}
	}
	if err := eng.BuildIndex(); err != nil {
		return nil, nil, err
	}
	return eng, peers, nil
}

// build is the fat-client build: it pushes the config to the daemons
// and indexes col through the client, one peer per member, returning
// the client-fabric engine and its peers (which later waves stage
// documents on).
func (f *fixture) build(name string) (*core.Engine, []*core.Peer, error) {
	if err := f.c.Configure(f.cfg); err != nil {
		return nil, nil, err
	}
	f.progress("%s: building %d docs over %d processes (R=%d)", name, f.col.M(), f.Nodes, f.Replicas)
	eng, peers, err := f.buildOn(f.c, f.c.Members())
	if err != nil {
		return nil, nil, fmt.Errorf("cluster build: %w", err)
	}
	return eng, peers, nil
}

// answers runs every query on the reference in its current state.
func (f *fixture) answers() ([][]rank.Result, error) {
	out := make([][]rank.Result, len(f.queries))
	for i, q := range f.queries {
		res, err := f.ref.Search(q, f.refOrigin, f.TopK)
		if err != nil {
			return nil, err
		}
		out[i] = res.Results
	}
	return out, nil
}

// requests returns the hdk.search request for every query.
func (f *fixture) requests(noCache bool) []core.SearchRequest {
	reqs := make([]core.SearchRequest, len(f.queries))
	for i, q := range f.queries {
		reqs[i] = core.SearchRequest{Terms: f.ref.QueryTerms(q), K: f.TopK, NoCache: noCache}
	}
	return reqs
}

// rotate coordinates every query once with the result cache on, the
// daemon addrs[i % Nodes] coordinating query i, and counts the answers
// that differ from want and the ones served from a result cache.
func (f *fixture) rotate(want [][]rank.Result) (mismatches, cached int, err error) {
	for i, req := range f.requests(false) {
		addr := f.addrs[i%len(f.addrs)]
		res, hit, err := f.c.SearchVia(addr, req)
		if err != nil {
			return 0, 0, fmt.Errorf("query %d via %s: %w", i, addr, err)
		}
		if hit {
			cached++
		}
		if !reflect.DeepEqual(want[i], res.Results) {
			mismatches++
		}
	}
	return mismatches, cached, nil
}

// sweep has every member of the client's view coordinate every query
// with the result cache off and counts the answers that differ from
// want.
func (f *fixture) sweep(want [][]rank.Result) (int, error) {
	mismatches := 0
	for _, m := range f.c.Members() {
		for i, req := range f.requests(true) {
			res, _, err := f.c.SearchVia(m.Addr(), req)
			if err != nil {
				return 0, fmt.Errorf("query %d via %s: %w", i, m.Addr(), err)
			}
			if !reflect.DeepEqual(want[i], res.Results) {
				mismatches++
			}
		}
	}
	return mismatches, nil
}

// counterSum is the sum of the serving counters over the daemons in
// the client's view, read from each daemon's telemetry snapshot.
type counterSum struct {
	fetchRPCs, searchRPCs, hits, misses, shed uint64
}

// counters sums the serving counters of every member of the client's
// view.
func (f *fixture) counters() (counterSum, error) {
	var sum counterSum
	for _, m := range f.c.Members() {
		snap, err := cluster.FetchMetrics(f.tr, m.Addr())
		if err != nil {
			return sum, fmt.Errorf("experiments: metrics from %s: %w", m.Addr(), err)
		}
		sum.fetchRPCs += snap.CounterSum("hdk_fetch_rpcs_total")
		sum.searchRPCs += snap.CounterSum("hdk_search_rpcs_total")
		sum.hits += snap.CounterSum("hdk_search_cache_hits_total")
		sum.misses += snap.CounterSum("hdk_search_cache_misses_total")
		sum.shed += snap.CounterSum("hdk_search_shed_total")
	}
	return sum, nil
}

// unrepaired counts the members of the client's view whose cluster.info
// reports a view that owes a repair.
func (f *fixture) unrepaired() (int, error) {
	n := 0
	for _, m := range f.c.Members() {
		info, err := cluster.FetchInfo(f.tr, m.Addr())
		if err != nil {
			return 0, fmt.Errorf("experiments: info from %s: %w", m.Addr(), err)
		}
		if info.Unrepaired {
			n++
		}
	}
	return n, nil
}

// procOf maps a member address to its process index in addrs.
func (f *fixture) procOf(addr string) (int, error) {
	for i, a := range f.addrs {
		if a == addr {
			return i, nil
		}
	}
	return -1, fmt.Errorf("experiments: member %s not in address list", addr)
}

// probedOwner returns the member owning the first query's first term —
// a key every run probes — and its process index: the victim the
// crash phases kill. (With a handful of nodes the ring arcs vary
// wildly, and a position-picked victim can own zero probed keys.)
func (f *fixture) probedOwner() (overlay.Member, int, error) {
	m, ok := f.c.OwnerOf(f.full.Vocab[f.queries[0].Terms[0]])
	if !ok {
		return nil, -1, fmt.Errorf("experiments: empty membership")
	}
	i, err := f.procOf(m.Addr())
	return m, i, err
}

// splitRange distributes full's documents in [built, upto) across peers
// exactly as a from-scratch SplitRoundRobin of the first upto documents
// would, so an incremental wave places every document on the peer the
// reference split expects.
func splitRange(full *corpus.Collection, built, upto, peers int) []*corpus.Collection {
	fullParts := full.Slice(0, upto).SplitRoundRobin(peers)
	builtParts := full.Slice(0, built).SplitRoundRobin(peers)
	out := make([]*corpus.Collection, peers)
	for i := range out {
		out[i] = &corpus.Collection{
			Vocab: full.Vocab,
			Docs:  fullParts[i].Docs[len(builtParts[i].Docs):],
		}
	}
	return out
}

// gates collects one message per failed gate; a report's Failures
// returns it.
type gates []string

// check records the message when ok is false.
func (g *gates) check(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Sprintf(format, args...))
	}
}
