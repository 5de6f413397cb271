package experiments

import (
	"fmt"
	"io"
	"reflect"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the multi-process deployment scenario: the same
// engine that the in-process experiments measure builds and queries a
// cluster of hdknode OS processes over pooled TCP, and the scenario
// verifies — not assumes — that deployment changes nothing: ranked
// results must be bit-identical to the in-process engine, a process
// crash at R>=2 must cost zero recall (failover), and a repair sweep
// must restore full R-way coverage. The CI cluster-e2e job runs this
// against 5 real child processes on every push.

// TCPClusterOpts parameterizes the deployment scenario.
type TCPClusterOpts struct {
	Nodes    int // daemon processes
	Replicas int // replication factor R
	Docs     int // corpus size (split round-robin across nodes)
	DFMax    int
	Window   int
	Queries  int
	TopK     int
	Seed     int64
}

// DefaultTCPClusterOpts is the CI-gated configuration: a 5-process
// cluster at R=3 with one crash.
func DefaultTCPClusterOpts() TCPClusterOpts {
	return TCPClusterOpts{
		Nodes: 5, Replicas: 3, Docs: 150, DFMax: 8, Window: 8,
		Queries: 30, TopK: 10, Seed: 11,
	}
}

// TCPClusterReport is the scenario's measurement.
type TCPClusterReport struct {
	Nodes    int
	Replicas int
	Docs     int
	Queries  int

	// Deployment parity: answers NOT bit-identical to the in-process
	// reference engine (must be 0) — pre-crash through the client engine,
	// then coordinated by every survivor after the forget, unrepaired and
	// repaired.
	Mismatches int

	// Failure sequence.
	RecallAfterCrash  float64 // recall@TopK vs intact, dead process still in the membership table (pure failover)
	FailoversPerQuery float64
	UnderAfterCrash   int // under-replicated keys once the member is removed
	CopiesRepaired    int
	RepairRPCs        int
	UnderAfterRepair  int
	RecallAfterRepair float64

	// Cost of running over real sockets.
	BuildNanos   int64
	WireMessages uint64
	WireBytes    uint64
	PoolDials    uint64
	PoolReuses   uint64
}

// ExactParity reports whether every query matched the in-process engine
// bit for bit: the pre-crash sweep through the client engine, and every
// survivor coordinating the whole set after the forget — before the
// repair sweep and again after it.
func (r *TCPClusterReport) ExactParity() bool { return r.Mismatches == 0 }

// TCPCluster runs the deployment scenario against an already-running
// cluster: addrs are the daemon addresses (start order), crash kills the
// process behind addrs[i] (cluster.Harness.Kill for real processes).
// The given transport carries all client traffic; pass a
// *transport.TCP to get pool counters in the report.
func TCPCluster(tr transport.Transport, addrs []string, crash func(i int) error,
	opts TCPClusterOpts, progress Progress) (*TCPClusterReport, error) {
	if progress == nil {
		progress = nopProgress
	}
	if len(addrs) != opts.Nodes {
		return nil, fmt.Errorf("experiments: %d addresses for %d nodes", len(addrs), opts.Nodes)
	}

	col, err := corpus.Generate(corpus.GenParams{
		NumDocs: opts.Docs, VocabSize: 2000, AvgDocLen: 50,
		Skew: 1.0, NumTopics: 8, TopicTerms: 80, TopicMix: 0.5, Seed: opts.Seed,
	})
	if err != nil {
		return nil, err
	}
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	qp := corpus.DefaultQueryParams(opts.Queries)
	qp.MinHits = 2
	queries, err := corpus.GenerateQueries(col, qp, opts.Window, cen.ConjunctiveHits)
	if err != nil {
		return nil, fmt.Errorf("query generation: %w", err)
	}

	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = opts.DFMax
	cfg.Window = opts.Window
	cfg.ReplicationFactor = opts.Replicas

	// In-process reference: the ground truth the cluster must reproduce
	// bit for bit.
	ref, err := buildInProcReference(col, opts.Nodes, cfg)
	if err != nil {
		return nil, err
	}
	refOrigin := ref.Network().Members()[0]
	intact := make([][]rank.Result, len(queries))
	for i, q := range queries {
		res, err := ref.Search(q, refOrigin, opts.TopK)
		if err != nil {
			return nil, err
		}
		intact[i] = res.Results
	}

	// Cluster build through the daemons.
	c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs})
	if err != nil {
		return nil, err
	}
	if err := c.Configure(cfg); err != nil {
		return nil, err
	}
	eng, err := core.NewEngine(c, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return nil, err
	}
	members := c.Members()
	for i, part := range col.SplitRoundRobin(len(members)) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			return nil, err
		}
	}
	progress("tcpcluster: building %d docs over %d processes (R=%d)", col.M(), opts.Nodes, opts.Replicas)
	buildStart := time.Now()
	if err := eng.BuildIndex(); err != nil {
		return nil, fmt.Errorf("cluster build: %w", err)
	}

	rep := &TCPClusterReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: col.M(), Queries: len(queries),
		BuildNanos: time.Since(buildStart).Nanoseconds(),
	}

	// The victim is the member that OWNS the first query's first term:
	// with only a handful of nodes the ring arcs vary wildly, and a
	// position-picked victim can legitimately own zero probed keys (≈12%
	// of layouts). Owning a key is not yet being read for it, though:
	// reads go to the searching member's own copy first and otherwise to
	// the fewest other members (core.ReadPlan). So the searches originate
	// at a surviving member whose first-level plan for some query reads
	// from the victim — the query set then exercises the failover path
	// by construction instead of by coin flip.
	victim, ok := c.OwnerOf(col.Vocab[queries[0].Terms[0]])
	if !ok {
		return nil, fmt.Errorf("experiments: empty membership")
	}
	victimIdx := -1
	for i, a := range addrs {
		if a == victim.Addr() {
			victimIdx = i
		}
	}
	if victimIdx < 0 {
		return nil, fmt.Errorf("experiments: victim %s not in address list", victim.Addr())
	}
	var origin overlay.Member
	for _, q := range queries {
		if origin = c.CoordinatorReading(eng.QueryTerms(q), opts.Replicas, victim.Addr()); origin != nil {
			break
		}
	}
	if origin == nil {
		return nil, fmt.Errorf("experiments: no surviving member's read plan names %s — the query set cannot exercise failover", victim.Addr())
	}

	// Pre-crash parity sweep.
	for i, q := range queries {
		res, err := eng.Search(q, origin, opts.TopK)
		if err != nil {
			return nil, fmt.Errorf("cluster query %d: %w", i, err)
		}
		if !reflect.DeepEqual(intact[i], res.Results) {
			rep.Mismatches++
		}
	}
	progress("tcpcluster: %d/%d queries bit-identical to in-process engine", len(queries)-rep.Mismatches, len(queries))

	// Crash the victim — the client is NOT told: the next searches must
	// discover the failure through dead fetches and fail over.
	progress("tcpcluster: crashing process %d (%s)", victimIdx, victim.Addr())
	if err := crash(victimIdx); err != nil {
		return nil, fmt.Errorf("crash process %d: %w", victimIdx, err)
	}
	recall, failovers, err := availabilityRecall(eng, queries, intact, origin, opts.TopK)
	if err != nil {
		return nil, fmt.Errorf("post-crash query: %w", err)
	}
	rep.RecallAfterCrash = recall
	rep.FailoversPerQuery = failovers

	// Remove the dead member — from the engine's view AND from the
	// daemons' bootstrap membership, so clients connecting later do not
	// rediscover the dead address — then repair daemon-to-daemon.
	if err := eng.FailNode(victim); err != nil {
		return nil, err
	}
	if err := c.Forget(victim.Addr()); err != nil {
		return nil, fmt.Errorf("forget dead member: %w", err)
	}
	survivor := c.Members()[0].Addr()
	if fresh, err := cluster.MembersOf(tr, survivor); err != nil || len(fresh) != opts.Nodes-1 {
		return nil, fmt.Errorf("post-forget discovery via %s: %d members (err %v), want %d",
			survivor, len(fresh), err, opts.Nodes-1)
	}
	// Forgotten but not yet repaired: the daemons' replica sets now name
	// members the crash promoted, which hold no copy. Every survivor must
	// still coordinate every query bit-identically — each reports its view
	// unrepaired and reads primary-first until the sweep below reports in.
	n, err := coordinatedMismatches(tr, c, eng, queries, intact, opts.TopK, true)
	if err != nil {
		return nil, fmt.Errorf("forgotten, unrepaired: %w", err)
	}
	rep.Mismatches += n
	// Audit and repair through the ENGINE's own methods: its inventory
	// reaches the daemon-hosted stores over the index RPCs, so the same
	// call an in-process deployment uses restores coverage here too.
	// (cluster.Client.Repairer offers the same sweep engine-free.)
	rep.UnderAfterCrash = eng.AuditReplicas().UnderReplicated
	rstats, err := eng.RepairReplicas()
	if err != nil {
		return nil, fmt.Errorf("repair: %w", err)
	}
	rep.CopiesRepaired = rstats.CopiesSent
	rep.RepairRPCs = rstats.RepairRPCs
	rep.UnderAfterRepair = eng.AuditReplicas().UnderReplicated
	if rep.RecallAfterRepair, _, err = availabilityRecall(eng, queries, intact, origin, opts.TopK); err != nil {
		return nil, fmt.Errorf("post-repair query: %w", err)
	}
	// The sweep told the daemons: they place reads again, same answers.
	if n, err = coordinatedMismatches(tr, c, eng, queries, intact, opts.TopK, false); err != nil {
		return nil, fmt.Errorf("repaired: %w", err)
	}
	rep.Mismatches += n

	st := tr.Stats()
	rep.WireMessages, rep.WireBytes = st.Messages, st.Bytes
	if tcp, ok := tr.(*transport.TCP); ok {
		ps := tcp.PoolStats()
		rep.PoolDials, rep.PoolReuses = ps.Dials, ps.Reuses
	}
	progress("tcpcluster: recall %.4f after crash (%.2f failovers/query), %.4f after repair (%d copies shipped, %d under-replicated left)",
		rep.RecallAfterCrash, rep.FailoversPerQuery, rep.RecallAfterRepair, rep.CopiesRepaired, rep.UnderAfterRepair)
	return rep, nil
}

// coordinatedMismatches has every member of the client's view coordinate
// every query (result cache off) and counts the answers that differ from
// the reference; it also holds each daemon's self-reported repair state
// to what the scenario expects at that point.
func coordinatedMismatches(tr transport.Transport, c *cluster.Client, eng *core.Engine,
	queries []corpus.Query, want [][]rank.Result, k int, unrepaired bool) (int, error) {
	mismatches := 0
	for _, m := range c.Members() {
		info, err := cluster.FetchInfo(tr, m.Addr())
		if err != nil {
			return 0, err
		}
		if info.Unrepaired != unrepaired {
			return 0, fmt.Errorf("%s reports unrepaired=%t, want %t", m.Addr(), info.Unrepaired, unrepaired)
		}
		for i, q := range queries {
			res, _, err := c.SearchVia(m.Addr(), core.SearchRequest{Terms: eng.QueryTerms(q), K: k, NoCache: true})
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

// buildInProcReference constructs the classic single-process engine.
func buildInProcReference(col *corpus.Collection, peers int, cfg core.Config) (*core.Engine, error) {
	net := overlay.NewNetwork(transport.NewInProc())
	nodes := make([]*overlay.Node, 0, peers)
	for i := 0; i < peers; i++ {
		n, err := net.AddNode(fmt.Sprintf("ref-%d", i))
		if err != nil {
			return nil, err
		}
		nodes = append(nodes, n)
	}
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return nil, err
	}
	for i, part := range col.SplitRoundRobin(peers) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			return nil, err
		}
	}
	if err := eng.BuildIndex(); err != nil {
		return nil, err
	}
	return eng, nil
}

// Fprint renders the deployment scenario report.
func (r *TCPClusterReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "TCP cluster deployment — %d hdknode processes, R=%d, %d docs, %d queries\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries)
	fmt.Fprintf(w, "parity vs in-process engine: %d/%d queries bit-identical\n", r.Queries-r.Mismatches, r.Queries)
	fmt.Fprintf(w, "crash: recall %.4f (%.2f failovers/query) | repair: %d copies over %d RPCs, %d under-replicated left, recall %.4f\n",
		r.RecallAfterCrash, r.FailoversPerQuery, r.CopiesRepaired, r.RepairRPCs, r.UnderAfterRepair, r.RecallAfterRepair)
	fmt.Fprintf(w, "build %.2fms | wire: %d msgs, %d payload bytes | pool: %d dials, %d reuses\n",
		float64(r.BuildNanos)/1e6, r.WireMessages, r.WireBytes, r.PoolDials, r.PoolReuses)
}
