package core

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Engine coordinates the HDK engine over an overlay network: it owns the
// configuration, the per-node index stores, the participating peers and
// the registry its work is counted in. The round-synchronous BuildIndex
// drives the paper's iterative collaborative indexing; Search implements
// the lattice-based retrieval model.
type Engine struct {
	net    overlay.Fabric
	cfg    Config
	vocab  []string
	termID map[string]corpus.TermID
	vf     []bool // very frequent terms (f_D > Ff), excluded from keys

	peers       []*Peer
	stores      map[overlay.ID]*StoreServer
	concurrency int // peers indexed in parallel per round (see SetConcurrency)

	// The registry every counted event goes to, with its handles
	// resolved once (see Instrument).
	reg      *telemetry.Registry
	query    *QueryMetrics
	inserted [MaxKeySize + 1]*telemetry.Counter // postings shipped into the index per round (all replicas); [0] unused
	notified *telemetry.Counter                 // NDK expansion notifications sent
}

// Registry series the build emits: the paper's IS_s (Figure 5) per
// round, and the keys named in expansion notifications.
const (
	metricBuildInsertedPostings = "hdk_build_inserted_postings_total"
	metricBuildNotifyKeys       = "hdk_build_notify_keys_total"
)

// NewEngine wires an HDK engine onto an overlay. vocab maps term ids to
// term strings; termFreqs are the global collection frequencies used to
// apply the Ff very-frequent-term cutoff (the paper's adaptive stop list —
// global statistics the prototype lineage distributes via the overlay).
func NewEngine(net overlay.Fabric, cfg Config, vocab []string, termFreqs []int) (*Engine, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(termFreqs) != len(vocab) {
		return nil, fmt.Errorf("core: termFreqs (%d) and vocab (%d) lengths differ", len(termFreqs), len(vocab))
	}
	e := &Engine{
		net:    net,
		cfg:    cfg,
		vocab:  vocab,
		termID: make(map[string]corpus.TermID, len(vocab)),
		vf:     make([]bool, len(vocab)),
		stores: make(map[overlay.ID]*StoreServer),
	}
	e.Instrument(telemetry.NewRegistry())
	for i, s := range vocab {
		e.termID[s] = corpus.TermID(i)
	}
	for i, f := range termFreqs {
		e.vf[i] = f > cfg.Ff
	}
	for _, node := range net.Members() {
		e.attachStore(node)
	}
	return e, nil
}

// attachStore hosts the index store for an overlay node in this process
// — a StoreServer without persistence, the type every daemon runs — and
// attaches its index services to the node, unless the member's store
// lives in another process (overlay.RemoteStore, the hdknode daemon
// case), where the services are already being served remotely and the
// engine reaches them through the fabric's RPC.
func (e *Engine) attachStore(node overlay.Member) {
	if overlay.IsRemote(node) {
		return
	}
	srv := newStoreServer(e.cfg)
	e.stores[node.ID()] = srv
	srv.Attach(node)
}

// classifySweepFanout bounds concurrent classification-sweep RPCs when
// stores live in other processes (the multi-process build path).
const classifySweepFanout = 8

// replicas returns the configured replication factor (>= 1). The
// effective replica set of a key is additionally capped at the overlay
// size by the resolver.
func (e *Engine) replicas() int {
	if e.cfg.ReplicationFactor < 1 {
		return 1
	}
	return e.cfg.ReplicationFactor
}

// AddPeer registers a peer owning the given local collection on an
// existing overlay node.
func (e *Engine) AddPeer(node overlay.Member, local *corpus.Collection) (*Peer, error) {
	if _, ok := e.stores[node.ID()]; !ok {
		// Node joined after engine construction (the churn scenario).
		e.attachStore(node)
	}
	p := newPeer(e, node, local)
	e.peers = append(e.peers, p)
	return p, nil
}

// Config returns the engine configuration.
func (e *Engine) Config() Config { return e.cfg }

// Network returns the overlay fabric the engine runs on.
func (e *Engine) Network() overlay.Fabric { return e.net }

// Metrics returns the registry the engine counts into: every search's
// traversal series, under the names and labels a daemon's coordinator
// exports (QueryMetrics), and the build's per-round inserted postings
// and notified keys.
func (e *Engine) Metrics() *telemetry.Registry { return e.reg }

// Instrument points the engine's series at reg: a daemon's build engine
// counts into the daemon's registry. Call it before the engine builds or
// searches; counts made before it stay on the registry they were made in.
func (e *Engine) Instrument(reg *telemetry.Registry) {
	e.reg = reg
	e.query = NewQueryMetrics(reg)
	for size := 1; size <= MaxKeySize; size++ {
		e.inserted[size] = reg.Counter(metricBuildInsertedPostings, telemetry.L("round", strconv.Itoa(size)))
	}
	e.notified = reg.Counter(metricBuildNotifyKeys)
}

// BuildIndex runs the iterative collaborative indexing over every
// peer's documents past its watermark: for each key size s = 1..smax
// every peer computes and inserts its local candidates, then the index
// nodes classify the round's keys and notify the contributors of newly
// non-discriminative keys, which drives the next round's key expansion.
// The first call indexes every document; a later call indexes only the
// documents staged since via Peer.AddDocuments (the paper's incremental
// maintenance, see Peer.generate), and the resulting global index is
// identical to a from-scratch build over the grown collection. A call
// with nothing staged inserts nothing.
func (e *Engine) BuildIndex() error {
	for s := 1; s <= e.cfg.SMax; s++ {
		if err := e.runRound(s); err != nil {
			return fmt.Errorf("core: round %d: %w", s, err)
		}
	}
	e.finishRounds()
	return nil
}

// finishRounds resets per-peer freshness state and advances document
// watermarks after a completed build.
func (e *Engine) finishRounds() {
	for _, p := range e.peers {
		for s := 1; s <= MaxKeySize; s++ {
			p.consumeFresh(s)
		}
		p.advanceWatermark()
	}
}

// SetConcurrency sets how many peers index in parallel within a round
// (default 1, fully serial). The final index is identical at any level:
// documents are disjoint across peers, so every store merge commutes.
func (e *Engine) SetConcurrency(n int) {
	if n < 1 {
		n = 1
	}
	e.concurrency = n
}

func (e *Engine) runRound(s int) error {
	errs := make([]error, len(e.peers))
	forEachLimit(len(e.peers), e.concurrency, func(i int) {
		_, errs[i] = e.indexPeerRound(e.peers[i], s)
	})
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return e.classifyAndNotify(s)
}

// PeerRoundTimes splits one peer's round into its two halves: candidate
// generation (pure local CPU) and the insert pass (owner resolution,
// encoding and one RPC per owner).
type PeerRoundTimes struct {
	Generate, Insert time.Duration
}

// IndexPeerRound runs one peer's candidate generation + batched insert
// pass for key size s — the per-peer quarter of the round-synchronous
// build loop, exported so a cluster daemon can execute its own shard's
// rounds under an external coordinator (the hdk.build path). The
// coordinator must barrier every participating peer at size s before
// running ClassifyRound(s); within the barrier, peers may run
// concurrently (documents are disjoint, so store merges commute).
func (e *Engine) IndexPeerRound(p *Peer, s int) (PeerRoundTimes, error) {
	if s < 1 || s > e.cfg.SMax {
		return PeerRoundTimes{}, fmt.Errorf("core: round size %d outside 1..%d", s, e.cfg.SMax)
	}
	return e.indexPeerRound(p, s)
}

// ClassifyRound runs the classification sweep and notify delivery for
// key size s across every member of the fabric — the coordinator's half
// of an externally driven build round (remote stores are swept through
// SvcClassify, notifications delivered through SvcNotify).
func (e *Engine) ClassifyRound(s int) error {
	if s < 1 || s > e.cfg.SMax {
		return fmt.Errorf("core: round size %d outside 1..%d", s, e.cfg.SMax)
	}
	return e.classifyAndNotify(s)
}

// FinishBuild resets per-peer freshness state and advances document
// watermarks after the final round — BuildIndex's epilogue, exported so
// each daemon of an externally coordinated build can complete its own
// peers once every round has run.
func (e *Engine) FinishBuild() { e.finishRounds() }

func (e *Engine) indexPeerRound(p *Peer, s int) (PeerRoundTimes, error) {
	start := time.Now()
	cands := p.generate(s)
	generated := time.Now()
	n, err := p.insertAll(cands, s)
	if err != nil {
		return PeerRoundTimes{}, err
	}
	e.inserted[s].Add(n)
	return PeerRoundTimes{Generate: generated.Sub(start), Insert: time.Since(generated)}, nil
}

// classifyAndNotify sweeps every index store, truncates NDK posting
// lists and sends expansion notifications to contributing peers (batched
// per peer, one message per store/peer pair). Stores hosted in this
// process are swept directly; stores served by other processes (hdknode
// daemons) are swept through the SvcClassify RPC — either way the sweep
// itself runs next to the data and only the notify map crosses the wire.
func (e *Engine) classifyAndNotify(s int) error {
	// Phase 1: sweep every store. The sweeps are independent (each
	// truncates and classifies only its own entries), so remote sweeps
	// fan out concurrently rather than paying one blocking round trip
	// per daemon per round; in-process stores sweep directly.
	members := e.net.Members() // deterministic ring order
	notifies := make([]map[string][]string, len(members))
	sweepErrs := make([]error, len(members))
	forEachLimit(len(members), classifySweepFanout, func(i int) {
		m := members[i]
		if srv, ok := e.stores[m.ID()]; ok {
			notifies[i] = srv.store.classifySweep(s)
			return
		}
		if !overlay.IsRemote(m) {
			return // member joined after construction with no store yet
		}
		raw, err := e.net.CallService(m.Addr(), SvcClassify, EncodeClassifyReq(s))
		if err != nil {
			sweepErrs[i] = fmt.Errorf("core: classify sweep at %s: %w", m.Addr(), err)
			return
		}
		if notifies[i], err = DecodeNotifyMap(raw); err != nil {
			sweepErrs[i] = fmt.Errorf("core: classify sweep at %s: %w", m.Addr(), err)
		}
	})
	for _, err := range sweepErrs {
		if err != nil {
			return err
		}
	}
	// Phase 2: deliver expansion notifications in ring order — the
	// delivery schedule stays deterministic regardless of sweep timing.
	for _, notify := range notifies {
		if notify == nil {
			continue
		}
		// Group keys by contributor address.
		byAddr := make(map[string][]string)
		for key, addrs := range notify {
			for _, a := range addrs {
				byAddr[a] = append(byAddr[a], key)
			}
		}
		addrs := make([]string, 0, len(byAddr))
		for a := range byAddr {
			addrs = append(addrs, a)
		}
		sort.Strings(addrs)
		for _, addr := range addrs {
			keys := byAddr[addr]
			sort.Strings(keys)
			batch := make([]postings.KeyedMessage, len(keys))
			for i, k := range keys {
				batch[i] = postings.KeyedMessage{Key: k}
			}
			payload := postings.EncodeKeyedBatch(nil, batch)
			if _, err := e.net.CallService(addr, SvcNotify, payload); err != nil {
				if errors.Is(err, transport.ErrUnknownAddress) {
					// The contributor departed the fabric (crashed member
					// removed by FailNode): its documents are out of the
					// build set and nothing is listening — skip, exactly
					// as the in-process overlay drops mail to the departed.
					continue
				}
				return fmt.Errorf("core: notify %s: %w", addr, err)
			}
			e.notified.Add(uint64(len(keys)))
		}
	}
	return nil
}

// SearchResult carries a ranked answer plus the per-query cost metrics of
// Figure 6 and the batched fan-out accounting.
type SearchResult struct {
	Results      []rank.Result
	FetchedPosts uint64 // postings shipped for this query
	ProbedKeys   int    // lattice subsets probed
	FoundKeys    int    // subsets present in the index (HDK or NDK)
	RPCs         int    // batched fetch RPCs issued (including failover re-sends)
	Rounds       int    // lattice levels traversed
	Failovers    int    // fetch batches re-sent to an alternate replica after an owner failed
}

// Search maps the query onto the lattice of its term subsets and probes
// the global index with a level-synchronous, batched, parallel traversal:
// each level's candidates survive subsumption pruning against the
// previous level (supersets of HDKs are never stored; supersets of absent
// keys cannot exist), their replica chains are resolved from the
// fabric's view, each key's reader is chosen from its chain (ReadPlan:
// from's own copy first, then the fewest other members), and every chosen reader
// receives a single multi-key fetch RPC — at most searchFanout RPCs
// in flight. Found keys' bounded posting lists are unioned in
// candidate order (so the ranked answer is identical at any fan-out and
// whichever replica answered) and ranked. The traversal itself (latticeSearch in
// coordinate.go) is shared verbatim with the daemon-side hdk.search
// coordinator, so a coordinated answer cannot drift from this one.
func (e *Engine) Search(q corpus.Query, from overlay.Member, k int) (*SearchResult, error) {
	// Deduplicate query terms, drop very frequent ones (they are not in
	// the key vocabulary, exactly like the single-term stop-word case),
	// and render them canonically in ascending TermID order.
	terms := e.QueryTerms(q)
	return newLatticeSearch(e.net, from, e.cfg, e.query).run(terms, min(e.cfg.SMax, len(terms)), k)
}

// forEachLimit invokes fn(0..n-1) from at most limit concurrent
// goroutines; fn instances must touch disjoint state or synchronize.
// The caller is one of the workers — it would otherwise only park in
// Wait — so limit-1 goroutines are spawned and n=1 or limit=1 spawn none.
func forEachLimit(n, limit int, fn func(i int)) {
	if limit > n {
		limit = n
	}
	if limit <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	work := func() {
		for {
			i := int(next.Add(1)) - 1
			if i >= n {
				return
			}
			fn(i)
		}
	}
	var wg sync.WaitGroup
	for w := 1; w < limit; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
}

func dedupTerms(ts []corpus.TermID) []corpus.TermID {
	seen := make(map[corpus.TermID]struct{}, len(ts))
	out := make([]corpus.TermID, 0, len(ts))
	for _, t := range ts {
		if _, ok := seen[t]; !ok {
			seen[t] = struct{}{}
			out = append(out, t)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// IndexStats aggregates the global index state for the Figures 3-5
// experiments.
type IndexStats struct {
	StoredBySize [MaxKeySize + 1]int // resident postings per key size
	KeysBySize   [MaxKeySize + 1]int // distinct keys per key size
	StoredTotal  int
	KeysTotal    int
	PerNode      map[overlay.ID]int // resident postings per overlay node
}

// Stats scans the stores hosted in THIS process and aggregates index
// statistics; stores served by other processes are not included (the
// cluster client exposes those via its StoreStats sweep).
func (e *Engine) Stats() IndexStats {
	st := IndexStats{PerNode: make(map[overlay.ID]int, len(e.stores))}
	for id, srv := range e.stores {
		posts, keys := srv.StoredBySize()
		nodeTotal := 0
		for s := 0; s <= MaxKeySize; s++ {
			st.StoredBySize[s] += posts[s]
			st.KeysBySize[s] += keys[s]
			st.StoredTotal += posts[s]
			st.KeysTotal += keys[s]
			nodeTotal += posts[s]
		}
		st.PerNode[id] = nodeTotal
	}
	return st
}

// Repairer returns a replica.Repairer configured for this engine's
// fabric and replication factor. Its inventory is the index services,
// reached through the fabric: a store hosted in this process answers
// them over the in-process transport, a daemon-hosted one over the wire.
func (e *Engine) Repairer() *replica.Repairer {
	return &replica.Repairer{Fabric: e.net, Inv: RemoteInventory{Call: e.net.CallService}, R: e.replicas()}
}

// RepairReplicas sweeps the surviving stores for under-replicated keys
// and re-replicates them over the fabric, restoring R-way coverage after
// churn without re-running the distributed build.
func (e *Engine) RepairReplicas() (replica.RepairStats, error) {
	return e.Repairer().Repair()
}

// AuditReplicas reports the index's replica coverage under the current
// membership — the store-sweep verification that repair restored R-way
// placement.
func (e *Engine) AuditReplicas() (replica.AuditStats, error) {
	rp := e.Repairer()
	return replica.Audit(rp.Fabric, rp.Inv, rp.R)
}

// FailNode simulates an ungraceful peer departure (crash): the node
// leaves the ring and its index fraction is LOST — unlike the graceful
// RemoveNode handoff, nothing is copied anywhere. Peers hosted on the
// node drop out of the build set. With ReplicationFactor >= 2 the
// surviving replicas keep every key reachable; RepairReplicas restores
// full coverage afterwards. In between the fabric's view owes a repair
// and every search reads primary-first:
// the member the crash promoted into a replica set holds no copy yet.
func (e *Engine) FailNode(node overlay.Member) error {
	if e.net.Size() <= 1 {
		return fmt.Errorf("core: cannot fail the last node")
	}
	if !e.net.RemoveNode(node.ID()) {
		return fmt.Errorf("core: node %x not in overlay", node.ID())
	}
	delete(e.stores, node.ID())
	kept := e.peers[:0]
	for _, p := range e.peers {
		if p.node.ID() != node.ID() {
			kept = append(kept, p)
		}
	}
	e.peers = kept
	return nil
}
