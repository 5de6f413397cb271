package core

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/transport"
)

// Engine coordinates the HDK engine over an overlay network: it owns the
// configuration, the per-node index stores, the participating peers and
// the traffic accounting. The round-synchronous BuildIndex drives the
// paper's iterative collaborative indexing; Search implements the
// lattice-based retrieval model.
type Engine struct {
	net    overlay.Fabric
	cfg    Config
	vocab  []string
	termID map[string]corpus.TermID
	vf     []bool // very frequent terms (f_D > Ff), excluded from keys

	peers       []*Peer
	stores      map[overlay.ID]*hdkStore
	concurrency int // peers indexed in parallel per round (see SetConcurrency)

	traffic Traffic
}

// Traffic aggregates the paper's posting/message counters. InsertedBySize
// feeds Figure 5 (IS_s); Fetched feeds Figure 6.
type Traffic struct {
	InsertedBySize  [MaxKeySize + 1]atomic.Uint64 // postings shipped into the index, per key size (all replicas)
	FetchedPosts    atomic.Uint64                 // postings shipped to querying peers
	NotifyMessages  atomic.Uint64                 // NDK expansion notifications sent
	ProbeMessages   atomic.Uint64                 // retrieval lattice probes issued
	ProbesBySize    [MaxKeySize + 1]atomic.Uint64 // lattice probes per level (= key size)
	FetchRPCs       atomic.Uint64                 // batched fetch RPCs issued by queries
	FetchRPCsBySize [MaxKeySize + 1]atomic.Uint64 // batched fetch RPCs per level
	QueryRounds     atomic.Uint64                 // lattice levels traversed by queries
	SearchFailovers atomic.Uint64                 // fetch batches re-sent to an alternate replica
}

// TrafficSnapshot is a point-in-time copy of the counters.
type TrafficSnapshot struct {
	InsertedBySize  [MaxKeySize + 1]uint64
	InsertedTotal   uint64
	FetchedPosts    uint64
	NotifyMessages  uint64
	ProbeMessages   uint64
	ProbesBySize    [MaxKeySize + 1]uint64
	FetchRPCs       uint64
	FetchRPCsBySize [MaxKeySize + 1]uint64
	QueryRounds     uint64
	SearchFailovers uint64
}

// Snapshot copies the counters.
func (t *Traffic) Snapshot() TrafficSnapshot {
	var s TrafficSnapshot
	for i := range t.InsertedBySize {
		s.InsertedBySize[i] = t.InsertedBySize[i].Load()
		s.InsertedTotal += s.InsertedBySize[i]
		s.ProbesBySize[i] = t.ProbesBySize[i].Load()
		s.FetchRPCsBySize[i] = t.FetchRPCsBySize[i].Load()
	}
	s.FetchedPosts = t.FetchedPosts.Load()
	s.NotifyMessages = t.NotifyMessages.Load()
	s.ProbeMessages = t.ProbeMessages.Load()
	s.FetchRPCs = t.FetchRPCs.Load()
	s.QueryRounds = t.QueryRounds.Load()
	s.SearchFailovers = t.SearchFailovers.Load()
	return s
}

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
		stores: make(map[overlay.ID]*hdkStore),
	}
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
// and registers the index services on it — unless the member's store
// lives in another process (overlay.RemoteStore, the hdknode daemon
// case), where the services are already being served remotely and the
// engine reaches them through the fabric's RPC.
func (e *Engine) attachStore(node overlay.Member) {
	if overlay.IsRemote(node) {
		return
	}
	store := newHDKStore(&e.cfg)
	e.stores[node.ID()] = store
	attachIndexServices(node, store, nil)
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

// Traffic returns the engine's traffic counters.
func (e *Engine) Traffic() *Traffic { return &e.traffic }

// BuildIndex runs the iterative collaborative indexing: for each key size
// s = 1..smax every peer computes and inserts its local candidates, then
// the index nodes classify the round's keys and notify the contributors
// of newly non-discriminative keys, which drives the next round's key
// expansion.
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
// watermarks after a completed build or update.
func (e *Engine) finishRounds() {
	for _, p := range e.peers {
		for s := 1; s <= MaxKeySize; s++ {
			p.consumeFresh(s)
		}
		p.advanceWatermark()
	}
}

// UpdateIndex incrementally indexes the documents staged via
// Peer.AddDocuments since the last BuildIndex/UpdateIndex: existing keys
// receive postings from the new documents only; keys whose generation
// was unlocked by freshly non-discriminative sub-keys (including HDKs
// that the new documents pushed over DFmax — the paper's maintenance
// notification rule) are built from every local document. The resulting
// global index is identical to a from-scratch build over the grown
// collection.
func (e *Engine) UpdateIndex() error {
	for s := 1; s <= e.cfg.SMax; s++ {
		for _, p := range e.peers {
			cands := p.generateUpdate(s)
			n, err := p.insertAll(cands, s)
			if err != nil {
				return fmt.Errorf("core: update round %d: %w", s, err)
			}
			e.traffic.InsertedBySize[s].Add(n)
		}
		// Freshness of size s-1 has been consumed by this round's
		// generation; clear it so the next update starts clean.
		for _, p := range e.peers {
			p.consumeFresh(s - 1)
		}
		if err := e.classifyAndNotify(s); err != nil {
			return fmt.Errorf("core: update round %d: %w", s, err)
		}
	}
	e.finishRounds()
	return nil
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
	workers := e.concurrency
	if workers <= 1 {
		for _, p := range e.peers {
			if _, err := e.indexPeerRound(p, s); err != nil {
				return err
			}
		}
		return e.classifyAndNotify(s)
	}
	sem := make(chan struct{}, workers)
	errCh := make(chan error, len(e.peers))
	for _, p := range e.peers {
		sem <- struct{}{}
		go func(p *Peer) {
			defer func() { <-sem }()
			_, err := e.indexPeerRound(p, s)
			errCh <- err
		}(p)
	}
	var firstErr error
	for range e.peers {
		if err := <-errCh; err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if firstErr != nil {
		return firstErr
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
	e.traffic.InsertedBySize[s].Add(n)
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
		if store, ok := e.stores[m.ID()]; ok {
			notifies[i] = store.classifySweep(s)
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
			e.traffic.NotifyMessages.Add(uint64(len(keys)))
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
// receives a single multi-key fetch RPC — at most Config.SearchFanout
// RPCs in flight. Found keys' bounded posting lists are unioned in
// candidate order (so the ranked answer is identical at any fan-out and
// whichever replica answered) and ranked. The traversal itself (latticeSearch in
// coordinate.go) is shared verbatim with the daemon-side hdk.search
// coordinator, so a coordinated answer cannot drift from this one.
func (e *Engine) Search(q corpus.Query, from overlay.Member, k int) (*SearchResult, error) {
	// Deduplicate query terms, drop very frequent ones (they are not in
	// the key vocabulary, exactly like the single-term stop-word case),
	// and render them canonically in ascending TermID order.
	terms := e.QueryTerms(q)
	maxSize := e.cfg.SMax
	if len(terms) < maxSize {
		maxSize = len(terms)
	}
	return newLatticeSearch(e.net, from, e.cfg, &e.traffic).run(terms, maxSize, k)
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
	for id, store := range e.stores {
		posts, keys := store.storedBySize(MaxKeySize)
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

// engineInventory adapts the replicated index to the repair sweep's
// view: stores hosted in this process are read directly, stores hosted
// by other processes (overlay.RemoteStore members) are read through the
// index inventory RPCs — so RepairReplicas and AuditReplicas are correct
// on any fabric, including the multi-process cluster. A member whose
// daemon is unreachable reports no resident keys, exactly the semantics
// a post-crash sweep needs.
type engineInventory struct{ e *Engine }

func (v engineInventory) store(m overlay.Member) *hdkStore { return v.e.stores[m.ID()] }

func (v engineInventory) remote() RemoteInventory {
	return RemoteInventory{Call: v.e.net.CallService}
}

func (v engineInventory) Keys(m overlay.Member) []string {
	if st := v.store(m); st != nil {
		return st.keyList()
	}
	if !overlay.IsRemote(m) {
		return nil
	}
	return v.remote().Keys(m)
}

func (v engineInventory) Fingerprint(m overlay.Member, key string) (replica.Fingerprint, bool) {
	if st := v.store(m); st != nil {
		return st.entryFingerprint(key)
	}
	if !overlay.IsRemote(m) {
		return replica.Fingerprint{}, false
	}
	return v.remote().Fingerprint(m, key)
}

func (v engineInventory) Export(m overlay.Member, key string) ([]byte, bool) {
	if st := v.store(m); st != nil {
		return st.exportEntry(key)
	}
	if !overlay.IsRemote(m) {
		return nil, false
	}
	return v.remote().Export(m, key)
}

// Repairer returns a replica.Repairer configured for this engine's
// fabric, stores and replication factor.
func (e *Engine) Repairer() *replica.Repairer {
	return &replica.Repairer{Fabric: e.net, Inv: engineInventory{e}, R: e.replicas()}
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
func (e *Engine) AuditReplicas() replica.AuditStats {
	return replica.Audit(e.net, engineInventory{e}, e.replicas())
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
