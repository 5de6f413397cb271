package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"sync/atomic"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file is the one driver every multi-process scenario runs on. A
// scenario (TCPServe, TCPIngestResume, Chaos) is a (schedule, workload,
// gate set) triple over one process fleet: a FaultSchedule that drive
// fires, the passes run at the points between its actions (plus chaos's
// closed-loop load), and its report's Failures. The fixture is the
// set-up they share: corpus, queries, engine config, the in-process
// reference every answer is compared against (the paper's §5 method)
// with its answers per index version, and a client dialled to the fleet.

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
// an interrupted upload (killAfterChunks) stops well inside a shard.
const fixtureChunkBytes = 2 << 10

// drive is the package's one scenario driver. It refuses a schedule that
// fails Validate or was made for a fleet of another size, then runs
// at(p) at every point between actions — p = 0 before the first, p = i+1
// once action i has fired — and fires each action through fire once
// sleep has waited out its offset from the start. Scenarios fire through
// fixture.fire with time.Sleep; a dry run passes stubs.
func drive(sched FaultSchedule, nodes int, fire func(FaultAction) error, sleep func(time.Duration), at func(p int) error) error {
	if err := sched.validateFor(nodes); err != nil {
		return err
	}
	start := time.Now()
	for p := 0; ; p++ {
		if err := at(p); err != nil || p == len(sched.Actions) {
			return err
		}
		act := sched.Actions[p]
		sleep(act.At - time.Since(start))
		if err := fire(act); err != nil {
			return fmt.Errorf("experiments: %s: %w", act, err)
		}
	}
}

// sequence is a schedule whose actions fire back to back, in order.
func sequence(nodes int, acts ...FaultAction) FaultSchedule {
	for i := range acts {
		acts[i].Seq = i
	}
	return FaultSchedule{Nodes: nodes, Actions: acts}
}

// fleet is the process fleet a scenario runs on: the transport, the
// daemon addresses in process (start) order, and the hooks that SIGKILL
// daemon i and bring it back warm on its address.
type fleet struct {
	tr            transport.Transport
	addrs         []string
	kill, restart func(i int) error
}

// fixture is one scenario's fleet and starting state, plus the state its
// schedule's actions change.
type fixture struct {
	ClusterOpts
	fleet
	name     string // progress-line prefix
	progress Progress

	full      *corpus.Collection // Docs plus the documents the waves stage
	col       *corpus.Collection // the first Docs documents: the initial build
	queries   []corpus.Query
	cfg       core.Config
	ref       *core.Engine // in-process reference, one peer per member
	refPeers  []*core.Peer
	refOrigin overlay.Member
	c         *cluster.Client

	// want[v] is the reference's answers after v waves of waveDocs
	// documents. A wave writes want[v] and publishes v through latest
	// before the cluster indexes it, and through stable once the cluster
	// has, so a concurrent reader may use any version in [stable, latest].
	want           [][][]rank.Result
	latest, stable atomic.Int32
	waveDocs       int

	eng      *core.Engine          // the fat-client engine over c; nil for a streamed build
	peers    []*core.Peer          // its peers, one per member: waves stage documents on them
	down     []atomic.Bool         // set before a kill, cleared once the restart returns
	uploads  []cluster.IngestStats // per ring member, its last upload's (committed: Chunks > 0)
	repaired replica.RepairStats   // the last repair sweep's
}

// newFixture generates the corpus (Docs plus waves×waveDocs), the
// queries and config, builds and asks the reference, and dials the fleet.
func newFixture(fl fleet, name string, opts ClusterOpts, waves, waveDocs int, progress Progress) (*fixture, error) {
	if progress == nil {
		progress = nopProgress
	}
	if len(fl.addrs) != opts.Nodes {
		return nil, fmt.Errorf("experiments: %d addresses for %d nodes", len(fl.addrs), opts.Nodes)
	}
	f := &fixture{
		ClusterOpts: opts, fleet: fl, name: name, progress: progress,
		want: make([][][]rank.Result, waves+1), waveDocs: waveDocs,
		down: make([]atomic.Bool, opts.Nodes),
	}
	var err error
	f.full, err = corpus.Generate(corpus.GenParams{
		NumDocs: opts.Docs + waves*waveDocs, VocabSize: 2000, AvgDocLen: 50,
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
	if f.want[0], err = f.answers(); err != nil {
		return nil, err
	}
	f.c, err = cluster.Dial(cluster.Options{Transport: fl.tr, Addrs: fl.addrs, ChunkBytes: fixtureChunkBytes})
	return f, err
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
	return eng, peers, eng.BuildIndex()
}

// build is the fat-client build: it pushes the config to the daemons
// and indexes col through the client into f.eng and f.peers.
func (f *fixture) build() error {
	if err := f.c.Configure(f.cfg); err != nil {
		return err
	}
	f.progress("%s: building %d docs over %d processes (R=%d)", f.name, f.col.M(), f.Nodes, f.Replicas)
	var err error
	if f.eng, f.peers, err = f.buildOn(f.c, f.c.Members()); err != nil {
		return fmt.Errorf("cluster build: %w", err)
	}
	return nil
}

// fire carries out one schedule action on the fleet.
func (f *fixture) fire(act FaultAction) error {
	t0 := time.Now()
	var err error
	switch n := act.Node; act.Op {
	case OpKill:
		f.down[n].Store(true)
		err = f.kill(n)
	case OpRestart:
		if err = f.restart(n); err == nil {
			f.down[n].Store(false)
		}
	case OpForget:
		// From the client's view and from the daemons' membership, so
		// clients connecting later do not rediscover the dead address.
		if m, ok := f.c.View().Member(f.addrs[n]); !ok || !f.c.RemoveNode(m.ID()) {
			err = fmt.Errorf("%s is not a member", f.addrs[n])
		} else {
			err = f.c.Forget(f.addrs[n])
		}
	case OpWave:
		err = f.wave(act.Wave + 1)
	case OpRepair:
		f.repaired, err = f.c.Repairer(f.Replicas).Repair()
	case OpResize:
		err = f.c.ConfigureSearchVia(f.addrs[n], act.Workers, act.Queue, -1)
	case OpIngest:
		err = f.ingest(n)
	}
	f.progress("%s: %s in %v", f.name, act, time.Since(t0).Round(time.Millisecond))
	return err
}

// wave indexes the next waveDocs documents as version v, on the
// reference first: the recall oracle must know a version before any
// cluster answer can reflect it. Document j goes to peer j % Nodes.
func (f *fixture) wave(v int) error {
	built := f.col.M() + (v-1)*f.waveDocs
	split := f.full.Slice(built, built+f.waveDocs).SplitRoundRobin(f.Nodes)
	stage := func(peers []*core.Peer) error {
		for i, p := range peers {
			if err := p.AddDocuments(split[(i-built%f.Nodes+f.Nodes)%f.Nodes]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := stage(f.refPeers); err != nil {
		return err
	}
	if err := f.ref.BuildIndex(); err != nil {
		return fmt.Errorf("reference update: %w", err)
	}
	answers, err := f.answers()
	if err != nil {
		return err
	}
	f.want[v] = answers
	f.latest.Store(int32(v))
	if err := stage(f.peers); err != nil {
		return err
	}
	if err := f.eng.BuildIndex(); err != nil {
		return fmt.Errorf("cluster update: %w", err)
	}
	f.stable.Store(int32(v))
	return nil
}

// killAfterChunks is where an interrupted upload stops, so a daemon
// SIGKILLed next holds exactly that many acked chunks durably.
const killAfterChunks = 5

// errIngestInterrupted is the deliberate client-side abort an
// interrupted upload injects through IngestSource.OnChunk.
var errIngestInterrupted = errors.New("experiments: deliberate mid-upload interruption")

// ingest streams every ring member whose session has not committed its
// shard of col over hdk.ingest, all in one session. With node >= 0 that
// daemon's upload stops after killAfterChunks acked chunks; with node =
// -1 the daemons then run the coordinated build.
func (f *fixture) ingest(node int) error {
	const session = 1
	members := f.c.Members()
	if f.uploads == nil {
		f.uploads = make([]cluster.IngestStats, len(members))
	}
	for i, m := range members {
		if f.uploads[i].Chunks > 0 {
			continue
		}
		src := cluster.ShardSource(f.col, f.cfg, session, i, len(members))
		cut := node >= 0 && m.Addr() == f.addrs[node]
		if cut {
			src.OnChunk = func(acked int) error {
				if acked >= killAfterChunks {
					return errIngestInterrupted
				}
				return nil
			}
		}
		st, err := f.c.Ingest(m.Addr(), src)
		f.uploads[i] = st
		switch {
		case cut && err == nil:
			return fmt.Errorf("upload to %s finished in %d chunks before the interruption point (%d) — shrink the chunk target", m.Addr(), st.Chunks, killAfterChunks)
		case cut && errors.Is(err, errIngestInterrupted):
		case err != nil:
			return fmt.Errorf("ingest shard %d to %s: %w", i, m.Addr(), err)
		}
	}
	if node >= 0 {
		return nil
	}
	return f.c.BuildRemote(f.addrs[0], nil)
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

// pass coordinates every query once, query i through coord(i, its
// request), with the result cache off when noCache, and counts the
// answers that differ from want, the ones served from a result cache,
// and the fetch batches re-sent to an alternate replica.
func (f *fixture) pass(noCache bool, want [][]rank.Result, coord func(int, core.SearchRequest) string) (mismatches, cached, failovers int, err error) {
	for i, req := range f.requests(noCache) {
		addr := coord(i, req)
		res, hit, err := f.c.SearchVia(addr, req)
		if err != nil {
			return 0, 0, 0, fmt.Errorf("query %d via %s: %w", i, addr, err)
		}
		if hit {
			cached++
		}
		if !reflect.DeepEqual(want[i], res.Results) {
			mismatches++
		}
		failovers += res.Failovers
	}
	return mismatches, cached, failovers, nil
}

// rotating hands query i to the daemon addrs[i % Nodes], so every daemon
// coordinates part of a pass.
func (f *fixture) rotating(i int, _ core.SearchRequest) string { return f.addrs[i%len(f.addrs)] }

// sweep has every member of the client's view coordinate every query
// with the result cache off and counts the answers that differ from
// want.
func (f *fixture) sweep(want [][]rank.Result) (int, error) {
	total := 0
	for _, m := range f.c.Members() {
		n, _, _, err := f.pass(true, want, func(int, core.SearchRequest) string { return m.Addr() })
		if err != nil {
			return 0, err
		}
		total += n
	}
	return total, nil
}

// probedOwner is the process index of the member owning the first
// query's first term, a key every run probes: with a handful of nodes
// the ring arcs vary wildly, and a position-picked victim can own none.
func (f *fixture) probedOwner() int {
	m, _ := f.c.OwnerOf(f.full.Vocab[f.queries[0].Terms[0]])
	return slices.Index(f.addrs, m.Addr())
}

// snapshot reads every live daemon's telemetry snapshot, in process
// order; a daemon that is down or does not answer reads as zero.
func (f *fixture) snapshot() []telemetry.Snapshot {
	out := make([]telemetry.Snapshot, len(f.addrs))
	for i, addr := range f.addrs {
		if !f.down[i].Load() {
			out[i], _ = cluster.FetchMetrics(f.tr, addr)
		}
	}
	return out
}

// sum adds one counter over every daemon's snapshot.
func sum(snaps []telemetry.Snapshot, counter string) uint64 {
	var n uint64
	for _, s := range snaps {
		n += s.CounterSum(counter)
	}
	return n
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
