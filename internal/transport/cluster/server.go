package cluster

import (
	"encoding/json"
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/durable"
	"repro/internal/overlay"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// durConfigure is the durable record kind older daemons logged for the
// configuration payload. Replay still reads it, and a daemon restored
// from one — it has no ingest session — re-emits it at the head of its
// snapshots, so replay knows the store configuration before the first
// store op. Every other daemon's configuration rides its ingest begin.
const durConfigure = "configure"

// shutdownGrace is how long a cluster.shutdown RPC waits before
// signaling Done, so the (local loopback) response write beats the
// transport teardown. This is a timer, not a happens-after edge: under
// extreme scheduling delay the client can still see a connection reset
// for a shutdown that succeeded — a cosmetic error with no state at
// risk, accepted in exchange for keeping the transport handler contract
// free of post-write hooks. Signal-based shutdown (what the harness and
// operators use) does not involve this path.
const shutdownGrace = 200 * time.Millisecond

// Search coordination defaults: how many hdk.search coordinations one
// daemon runs concurrently, how many more may wait in the bounded
// admission queue before the daemon sheds requests with an explicit
// overload rejection, and how many query results its LRU holds. All
// operator-tunable via ConfigureSearch (cmd/hdknode: -search-workers,
// -search-queue, -search-cache).
const (
	defaultSearchWorkers = 8
	defaultSearchQueue   = 32
	defaultSearchCache   = 1024
)

// searchRetryAfter is the backoff hint a shed request carries. A shed
// means workers + queue are all busy; one queue slot frees as soon as a
// coordination (typically a few ms to tens of ms) completes, so a small
// constant hint keeps well-behaved clients closely packed behind the
// queue without hammering it.
const searchRetryAfter = 25 * time.Millisecond

// Server is the daemon side of the cluster: one process's membership
// identity plus its share of the replicated index. It implements
// overlay.Member, so core.StoreServer.Attach registers the exact same
// index handlers the in-process engine uses; the control services
// (membership, configuration, shutdown) are built in.
//
// The daemon's membership is its coordination fabric: one *Client whose
// overlay.View every join, announce, forget and repaired notice moves
// through, and which hdk.search coordinations read with one atomic load.
// A starting daemon joins through any existing member, which hands it
// the current view and its debt, and announces itself to everyone in it.
// The view grows on join/announce and shrinks only through
// cluster.forget (Client.Forget), which an operator broadcasts after a
// process dies for good. Forgetting a member while holding an index
// leaves the view owing a repair — the replica sets it now implies name
// members that hold no copy yet — until a repair sweep over that same
// membership reports in (cluster.repaired); before any build a forget
// is a graceful leave, with nothing to be missing.
type Server struct {
	tr       transport.Transport
	addr     string
	id       overlay.ID
	replicas int

	// fabric is the daemon's membership and the fabric it coordinates
	// searches over; self is its own stub there. Coordinations read
	// self's copies straight from store (core.Coordinator.Store), with
	// no loopback RPC and no codec.
	fabric *Client
	self   *Member

	// replaying is set while EnableDurability replays the data directory:
	// the store's services are attached by then, but hold only a prefix
	// of the log, so dispatch refuses every index, search, ingest and
	// build RPC until it clears.
	replaying atomic.Bool

	mu         sync.Mutex
	store      *core.StoreServer
	configJSON []byte
	dur        *durable.Store
	warm       bool // store state was restored from disk at startup
	catchUp    replica.RepairStats

	// Streamed-build state (guarded by mu): the current hdk.ingest
	// session — nil until a begin arrives or durable replay restores one
	// — and the corpus shard it materialized at commit, with the global
	// term frequencies the build engine's Ff cutoff needs.
	ingest     *ingestSession
	shard      *corpus.Collection
	shardFreqs []int

	// build is the hdk.build state machine (own lock; see build.go).
	build serverBuild

	// Query coordination state (the hdk.search serving path) beside the
	// fabric: a worker pool bounding concurrent coordinations, and a
	// result LRU keyed by the raw request bytes.
	//
	// Admission control (guarded by amu): searchQueued counts every
	// admitted coordination — running (holding a searchSem slot) or
	// waiting for one. A request is shed when searchQueued would exceed
	// cap(searchSem)+searchQueueCap, so at most searchQueueCap requests
	// ever wait and the wait is bounded by queue-depth coordination
	// times. searchSem itself is swapped by ConfigureSearch; in-flight
	// releases are closures over the channel they acquired, so a resize
	// can never strand a permit in the wrong channel.
	amu            sync.Mutex
	searchSem      chan struct{}
	searchQueued   int
	searchQueueCap int

	// cmu orders result-cache fills against invalidation: a coordination
	// records cacheGen before probing and only publishes its result if
	// no mutation bumped the generation meanwhile — a concurrent index
	// change can therefore never be papered over by a stale cache fill.
	cmu         sync.Mutex
	cacheGen    uint64
	searchCache *cache.LRU[[]byte]

	// metrics is the daemon's telemetry registry with the serving-path
	// instruments pre-registered (see server_metrics.go); cluster.metrics
	// ships the whole registry.
	metrics *serverMetrics

	// Slow-query log state: the threshold in nanoseconds (0 = off) and
	// the unix-nano stamp of the last emitted line (rate limiter).
	slowQueryNanos atomic.Int64
	slowLogLast    atomic.Int64

	smu      sync.RWMutex
	services map[string]transport.Handler

	done     chan struct{}
	stopOnce sync.Once
}

// Info is a daemon's self-description, served as JSON by cluster.info:
// identity and lifecycle state only. Its counters and gauges (RPCs
// served, cache hits, shed searches, queue depth, resident keys,
// members) live in the telemetry registry and are read through
// FetchMetrics.
type Info struct {
	Addr       string `json:"addr"`
	ID         string `json:"id"` // ring position, hex
	Replicas   int    `json:"replicas"`
	Configured bool   `json:"configured"`
	// Warm reports that the store was restored from a durable data dir
	// at startup instead of being rebuilt over the wire.
	Warm bool `json:"warm"`
	// CatchUpStale/CatchUpPulled summarize the warm-rejoin delta the
	// daemon pulled from its replica peers (both 0 when nothing was
	// missed while down).
	CatchUpStale  int `json:"catchup_stale"`
	CatchUpPulled int `json:"catchup_pulled"`
	// Unrepaired reports that the daemon's view owes a repair: it forgot
	// a member and no sweep over its current membership has reported in,
	// so it coordinates searches primary-first until one does.
	Unrepaired bool `json:"unrepaired"`
	// IngestChunks/IngestDocs report the streamed-build upload state:
	// chunks durably held for the current hdk.ingest session, and
	// documents in the materialized corpus shard (0 until the session
	// commits).
	IngestChunks int `json:"ingest_chunks"`
	IngestDocs   int `json:"ingest_docs"`
	// BuildState/BuildRound/BuildError surface hdk.build progress:
	// "idle", "running", "done" or "failed" — the coordinator's state
	// machine on the daemon driving the build, the worker view elsewhere
	// — with the latest round in flight and the first failure message.
	BuildState string `json:"build_state"`
	BuildRound int    `json:"build_round"`
	BuildError string `json:"build_error,omitempty"`
}

// NewServer binds a daemon on the transport (pass "127.0.0.1:0" for an
// ephemeral port) and returns it with a single-member view of itself.
// replicas is the replication factor the operator intends for the
// cluster; it is advertised through cluster.info so clients can adopt it.
func NewServer(tr transport.Transport, listen string, replicas int) (*Server, error) {
	if replicas < 1 {
		replicas = 1
	}
	s := &Server{
		tr:             tr,
		replicas:       replicas,
		fabric:         newClient(Options{Transport: tr}),
		services:       make(map[string]transport.Handler),
		searchSem:      make(chan struct{}, defaultSearchWorkers),
		searchQueueCap: defaultSearchQueue,
		searchCache:    cache.NewLRU[[]byte](defaultSearchCache),
		metrics:        newServerMetrics(),
		done:           make(chan struct{}),
	}
	// Registry before Listen: the transport delivers traffic the moment
	// it binds, and every handler assumes the instruments exist.
	s.registerGauges()
	bound, err := tr.Listen(listen, s.dispatch)
	if err != nil {
		return nil, err
	}
	s.addr = bound
	s.id = overlay.HashNode(bound)
	s.self = newMember(bound)
	s.fabric.Apply(func(v overlay.View) overlay.View { return v.Join(s.self) })
	return s, nil
}

// ID implements overlay.Member.
func (s *Server) ID() overlay.ID { return s.id }

// Addr implements overlay.Member.
func (s *Server) Addr() string { return s.addr }

// Handle implements overlay.Member: core.StoreServer registers the index
// services through this.
func (s *Server) Handle(service string, h transport.Handler) {
	s.smu.Lock()
	defer s.smu.Unlock()
	s.services[service] = h
}

// Replicas returns the advertised replication factor.
func (s *Server) Replicas() int { return s.replicas }

// ConfigureSearch sizes the query-coordination path: workers bounds
// concurrent hdk.search coordinations, queue how many admitted requests
// may wait for a worker before the daemon sheds with an explicit
// overload rejection, and cacheCap the query-result LRU. workers < 1
// keeps the default; queue 0 sheds as soon as every worker is busy and
// queue < 0 keeps the default; cacheCap 0 disables result caching and
// cacheCap < 0 keeps the default (mirroring cmd/hdknode's flags).
//
// Safe to call while serving: in-flight coordinations release the
// semaphore they acquired (admitSearch hands out a release closure over
// the specific channel), so swapping in a new one strands nothing —
// old holders drain the old channel, new admissions use the new bound.
func (s *Server) ConfigureSearch(workers, queue, cacheCap int) {
	s.amu.Lock()
	if workers >= 1 {
		s.searchSem = make(chan struct{}, workers)
	}
	if queue >= 0 {
		s.searchQueueCap = queue
	}
	s.amu.Unlock()
	if cacheCap >= 0 {
		s.cmu.Lock()
		s.searchCache = cache.NewLRU[[]byte](cacheCap)
		s.cmu.Unlock()
	}
}

// admitSearch decides one hdk.search request's fate: admitted requests
// get a release closure (run it when the coordination finishes) after a
// bounded wait for a worker slot; a request that would push the
// admitted count past workers+queue is shed immediately with the
// retry-after hint to send back. The closure releases the exact
// semaphore channel it acquired — see ConfigureSearch.
func (s *Server) admitSearch() (release func(), retryAfter time.Duration) {
	s.amu.Lock()
	sem := s.searchSem
	if s.searchQueued >= cap(sem)+s.searchQueueCap {
		s.amu.Unlock()
		return nil, searchRetryAfter
	}
	s.searchQueued++
	s.amu.Unlock()
	sem <- struct{}{} // at most searchQueueCap requests wait here
	return func() {
		<-sem
		s.amu.Lock()
		s.searchQueued--
		s.amu.Unlock()
	}, 0
}

// invalidateSearchCache drops every cached query result and bumps the
// cache generation so an in-flight coordination that started before a
// LOCALLY served mutation cannot re-publish its (possibly stale)
// answer. Wired into the store server's mutation hook: every insert,
// classify sweep and repair import served by this daemon fires it.
// The guarantee is per-node: a coordination racing a cluster-wide
// update can still observe another daemon's pre-update store and cache
// that answer until this daemon's next mutation lands (builds and
// updates sweep every store each round, so the window closes within
// the round). Exact cross-node coherence is a ROADMAP item.
func (s *Server) invalidateSearchCache() {
	s.cmu.Lock()
	s.cacheGen++
	s.searchCache.Clear()
	s.cmu.Unlock()
}

// Done is closed when a shutdown was requested (cluster.shutdown RPC or
// Shutdown call); the daemon main waits on it.
func (s *Server) Done() <-chan struct{} { return s.done }

// Shutdown signals Done. Closing the transport is the caller's job.
func (s *Server) Shutdown() { s.stopOnce.Do(func() { close(s.done) }) }

// EnableDurability attaches a durable data store and replays whatever it
// recovered: a "configure" record recreates the store server (with
// persistence enabled, so replayed state keeps persisting), and every
// further record replays through core.StoreServer. Call once, before the
// daemon joins. It listens already, and a live coordinator may reach it
// mid-replay: until the replay is done every index service, hdk.search,
// hdk.ingest and hdk.build answer with an error, which sends a fetch on
// to the key's next replica instead of reading a half-restored store.
// After a recovery with index state the daemon reports Warm through
// cluster.info.
func (s *Server) EnableDurability(d *durable.Store) error {
	s.replaying.Store(true)
	defer s.replaying.Store(false)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.store != nil {
		return fmt.Errorf("cluster: %s: enable durability before configuration", s.addr)
	}
	s.dur = d
	replay := append(append([]durable.Record{}, d.Snapshot()...), d.Ops()...)
	for i, rec := range replay {
		if rec.Kind == durConfigure {
			if err := s.configureLocked(rec.Payload); err != nil {
				return fmt.Errorf("cluster: %s: replay configure: %w", s.addr, err)
			}
			continue
		}
		if rec.Kind == durIngestBegin || rec.Kind == durIngestChunk || rec.Kind == durIngestCommit {
			// Ingest records restore the upload session — configuration,
			// acked chunks, the materialized shard if it committed — so a
			// SIGKILLed daemon resumes exactly where its last ack left it.
			if err := s.replayIngestRecord(rec.Kind, rec.Payload); err != nil {
				return fmt.Errorf("cluster: %s: replay %s record: %w", s.addr, rec.Kind, err)
			}
			continue
		}
		if s.store == nil {
			return fmt.Errorf("cluster: %s: durable record %d (%s) precedes configuration", s.addr, i, rec.Kind)
		}
		if err := s.store.ReplayRecord(rec.Kind, rec.Payload); err != nil {
			return fmt.Errorf("cluster: %s: replay %s record: %w", s.addr, rec.Kind, err)
		}
		if replayedHook != nil {
			replayedHook(i)
		}
	}
	d.DropRecovery()
	s.warm = s.store != nil && s.store.Populated()
	return nil
}

// Warm reports whether startup restored index state from disk.
func (s *Server) Warm() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.warm
}

// CatchUp pulls the delta this daemon missed while it was down: over its
// own membership view it runs the repair sweep restricted to deficits
// naming this daemon, and imports every copy fresher than (or absent
// from) its restored store — the warm-rejoin path that replaces full
// re-replication. Call after Join; a daemon without a configured store
// has nothing to catch up on.
func (s *Server) CatchUp() (replica.RepairStats, error) {
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	if store == nil {
		return replica.RepairStats{}, nil
	}
	// The import batch to self arrives over the daemon's own RPC surface,
	// so the pulled copies run through the persist hooks like any other
	// repair traffic — the catch-up itself is durable.
	st, err := s.fabric.Repairer(store.Config().ReplicationFactor).CatchUp(s.self)
	if err != nil {
		return st, err
	}
	s.mu.Lock()
	s.catchUp = st
	s.mu.Unlock()
	return st, nil
}

// PersistShutdown is the graceful-exit path for a durable daemon: the op
// log is compacted into a fresh snapshot (so the next start replays zero
// ops) and the data store is closed. A no-op without durability.
func (s *Server) PersistShutdown() error {
	s.mu.Lock()
	store, d := s.store, s.dur
	s.mu.Unlock()
	if d == nil {
		return nil
	}
	if store != nil && store.Populated() {
		if err := store.CompactNow(); err != nil {
			d.Close()
			return err
		}
	}
	return d.Close()
}

// Join bootstraps this daemon into an existing cluster through any
// member: the joiner adopts the seed's post-join view with its debt
// (View.Adopt) and announces itself to every other member in it. Serial
// bootstrap — concurrent joins through different seeds are not merged.
func (s *Server) Join(seed string) error {
	raw, err := transport.CallRetry(s.tr, seed, overlay.EncodeEnvelope(ctrlJoin, []byte(s.addr)), maxTransientRetries)
	if err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seed, err)
	}
	var seen view
	if err := json.Unmarshal(raw, &seen); err != nil {
		return fmt.Errorf("cluster: join via %s: %w", seed, err)
	}
	s.fabric.adopt(seen)
	for _, a := range seen.Members {
		if a == s.addr || a == seed {
			continue
		}
		// Best-effort: the seed's view is grow-only, so it may still
		// name members that crashed and were never Forgotten. A dead
		// address must not block cluster growth — the joiner announces
		// to everyone it can reach and skips the rest (a member that is
		// merely slow still learns the joiner from a client's discovery
		// going through the seed).
		transport.CallRetry(s.tr, a, overlay.EncodeEnvelope(ctrlAnnounce, []byte(s.addr)), maxTransientRetries)
	}
	return nil
}

// view renders the membership as cluster.members and cluster.join
// answer it: addresses sorted, with the debt.
func (s *Server) view() view {
	v := s.fabric.View()
	addrs := v.Addrs()
	sort.Strings(addrs)
	return view{Members: addrs, Unrepaired: v.Owed()}
}

// forget drops a member from the view. With an index in the stores, the
// replica sets the smaller view implies name members that hold no copy
// until a repair sweep ships one, so it is a crash (View.Forget); before
// any build there is nothing to be missing (View.Leave).
func (s *Server) forget(addr string) {
	store := s.Store()
	crash := store != nil && store.Populated()
	s.fabric.Apply(func(v overlay.View) overlay.View {
		m, ok := v.Member(addr)
		if !ok {
			return v
		}
		if crash {
			return v.Forget(m.ID())
		}
		return v.Leave(m.ID())
	})
}

// repaired settles the view's debt if the sweep reporting in (payload:
// its addresses) restored exactly this membership (View.Repaired). This
// is the local transition — no notice is passed on.
func (s *Server) repaired(payload []byte) error {
	var swept []string
	if err := json.Unmarshal(payload, &swept); err != nil {
		return fmt.Errorf("cluster: %s: bad repaired notice: %w", s.addr, err)
	}
	return s.fabric.Membership.MarkRepaired(swept)
}

// dispatch is the daemon's transport handler: control services are built
// in, everything else resolves against the registered index services.
func (s *Server) dispatch(req []byte) ([]byte, error) {
	service, payload, err := overlay.DecodeEnvelope(req)
	if err != nil {
		return nil, err
	}
	switch service {
	case ctrlInfo:
		return s.handleInfo()
	case ctrlMembers:
		return json.Marshal(s.view())
	case ctrlJoin:
		s.fabric.adopt(view{Members: []string{string(payload)}})
		return json.Marshal(s.view())
	case ctrlAnnounce:
		s.fabric.adopt(view{Members: []string{string(payload)}})
		return nil, nil
	case ctrlForget:
		s.forget(string(payload))
		return nil, nil
	case ctrlRepaired:
		return nil, s.repaired(payload)
	case ctrlMeta:
		s.mu.Lock()
		meta := s.configJSON
		s.mu.Unlock()
		if meta == nil {
			return nil, fmt.Errorf("cluster: %s not configured", s.addr)
		}
		return meta, nil
	case ctrlMetrics:
		return telemetry.EncodeSnapshot(s.metrics.reg.Snapshot()), nil
	case ctrlSearchConfig:
		var sc searchConfig
		if err := json.Unmarshal(payload, &sc); err != nil {
			return nil, fmt.Errorf("cluster: %s: bad search config: %w", s.addr, err)
		}
		s.ConfigureSearch(sc.Workers, sc.Queue, sc.Cache)
		return nil, nil
	case ctrlShutdown:
		// Signal Done only after this response frame has had time to
		// flush: the daemon main closes the transport on Done, and
		// closing first would turn a successful shutdown into a
		// connection-reset error at the client.
		time.AfterFunc(shutdownGrace, s.Shutdown)
		return nil, nil
	}
	if s.replaying.Load() {
		return nil, fmt.Errorf("cluster: node %s: %q refused: replaying its data directory", s.addr, service)
	}
	switch service {
	case core.SvcSearch:
		return s.handleSearch(payload)
	case SvcIngest:
		return s.handleIngest(payload)
	case SvcBuild:
		return s.handleBuild(payload)
	}
	s.smu.RLock()
	h, ok := s.services[service]
	s.smu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("cluster: node %s: unknown service %q (configured: %v)", s.addr, service, s.configured())
	}
	switch service {
	case core.SvcInsert:
		// Meter re-index traffic: a warm-restarted daemon proves its
		// restored index cost zero rebuild RPCs by this staying 0.
		s.metrics.insertRPCs.Inc()
	case core.SvcFetchBatch:
		// Meter query fetches: a repeat query served from a
		// coordinator's result cache proves itself by this staying flat
		// on every daemon.
		s.metrics.fetchRPCs.Inc()
	}
	return h(payload)
}

func (s *Server) configured() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store != nil
}

func (s *Server) handleInfo() ([]byte, error) {
	unrepaired := s.fabric.View().Owed()
	s.mu.Lock()
	info := Info{
		Addr:          s.addr,
		ID:            fmt.Sprintf("%016x", uint64(s.id)),
		Replicas:      s.replicas,
		Configured:    s.store != nil,
		Unrepaired:    unrepaired,
		Warm:          s.warm,
		CatchUpStale:  s.catchUp.UnderReplicated,
		CatchUpPulled: s.catchUp.CopiesSent,
	}
	if s.ingest != nil {
		info.IngestChunks = len(s.ingest.chunks)
	}
	if s.shard != nil {
		info.IngestDocs = len(s.shard.Docs)
	}
	s.mu.Unlock()
	// Outside mu: buildProgress takes the build lock, which nests the
	// other way around (buildEngine acquires build.mu then mu).
	info.BuildState, info.BuildRound, info.BuildError = s.buildProgress()
	return json.Marshal(info)
}

// handleSearch serves one hdk.search coordination: the daemon answers a
// repeat query straight from its result cache, and otherwise runs the
// engine's level-parallel lattice traversal itself — against its own
// membership view, reading its own store directly and every other
// store over the pooled fabric, replica failover included. The
// raw request bytes are the cache key (the request encoding is
// canonical). Concurrent coordinations are bounded by the worker pool
// plus a bounded admission queue; past that the request is shed with an
// explicit overload rejection instead of queueing unboundedly (cache
// hits bypass admission — they cost no coordination work).
func (s *Server) handleSearch(req []byte) ([]byte, error) {
	s.metrics.searchRPCs.Inc()
	sreq, err := core.DecodeSearchRequest(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	store := s.store
	s.mu.Unlock()
	if store == nil {
		return nil, fmt.Errorf("cluster: %s not configured", s.addr)
	}
	var tb *telemetry.TraceBuilder
	if sreq.Trace {
		tb = telemetry.StartTrace("coordinate",
			telemetry.Str("node", s.addr),
			telemetry.Num("terms", uint64(len(sreq.Terms))),
			telemetry.Num("k", uint64(sreq.K)))
	}
	var key string
	var gen uint64
	if !sreq.NoCache {
		// The raw request bytes are the cache key (built only when the
		// cache is consulted), but the trace flag must not split the
		// cache: a traced run of a query and its untraced repeats share
		// one answer, so the key is always the canonical untraced encoding.
		if sreq.Trace {
			untraced := sreq
			untraced.Trace = false
			key = string(core.EncodeSearchRequest(untraced))
		} else {
			key = string(req)
		}
		cacheSpan := tb.Start(0, "cache")
		s.cmu.Lock()
		body, ok := s.searchCache.Get(key)
		gen = s.cacheGen
		s.cmu.Unlock()
		if tb != nil {
			tb.Annotate(cacheSpan, telemetry.Str("hit", strconv.FormatBool(ok)))
			tb.End(cacheSpan)
		}
		if ok {
			// Cache hits skip coordination, so a traced request answered
			// from cache carries no trace (documented on SearchRequest).
			s.metrics.cacheHits.Inc()
			return core.EncodeSearchResponse(body, true), nil
		}
		s.metrics.cacheMisses.Inc()
	}
	admSpan := tb.Start(0, "admission")
	admStart := time.Now()
	release, retryAfter := s.admitSearch()
	if release == nil {
		// Shed: workers and queue are full. The rejection is a transport
		// SUCCESS carrying the retry-after hint — a handler error would
		// be retried as transient by the RPC layer instead of backed off.
		s.metrics.searchShed.Inc()
		return core.EncodeSearchOverloaded(retryAfter), nil
	}
	s.metrics.admissionWait.ObserveDuration(time.Since(admStart))
	tb.End(admSpan)
	defer release()
	coord := core.Coordinator{Net: s.fabric, Cfg: store.Config(), From: s.self, Store: store, Metrics: s.metrics.query}
	coordStart := time.Now()
	res, err := coord.SearchTraced(sreq.Terms, sreq.K, tb)
	if err != nil {
		return nil, err
	}
	coordDur := time.Since(coordStart)
	s.metrics.coordination.ObserveDuration(coordDur)
	s.noteSlowQuery(sreq, res, coordDur)
	body := core.EncodeSearchResult(res)
	if !sreq.NoCache {
		// Publish only if no mutation invalidated the cache since this
		// coordination started — otherwise the answer may predate the
		// change and must not outlive it.
		s.cmu.Lock()
		if gen == s.cacheGen {
			s.searchCache.Put(key, body)
		}
		s.cmu.Unlock()
	}
	if tb != nil {
		return core.EncodeSearchResponseTraced(body, telemetry.EncodeTrace(tb.Finish())), nil
	}
	return core.EncodeSearchResponse(body, false), nil
}

// configureLocked creates and attaches the store server from a
// configuration payload. Shared by the ingest begin and the replay of
// legacy configure records; the caller holds s.mu and handles logging.
func (s *Server) configureLocked(payload []byte) error {
	cfg, canon, err := canonicalConfig(payload)
	if err != nil {
		return err
	}
	store, err := core.NewStoreServer(cfg)
	if err != nil {
		return err
	}
	if s.dur != nil {
		store.EnablePersistence(s.dur, s.durableHeader)
	}
	// Every mutation this daemon serves (insert, classify, repair) drops
	// its cached query results — a coordinator can never answer across
	// an index change it has itself applied.
	store.OnMutation(s.invalidateSearchCache)
	store.Attach(s) // registers services under smu, not s.mu
	s.store = store
	s.configJSON = canon
	return nil
}

// canonicalConfig decodes a configuration payload and re-encodes it.
// Configurations are compared in this form, so a payload that carries a
// retired field (an older client's, or an older data directory's
// durable record) equals the same configuration sent by a current
// client.
func canonicalConfig(payload []byte) (core.Config, []byte, error) {
	var cfg core.Config
	if err := json.Unmarshal(payload, &cfg); err != nil {
		return cfg, nil, fmt.Errorf("cluster: bad configuration: %w", err)
	}
	canon, err := json.Marshal(cfg)
	return cfg, canon, err
}

// durableHeader contributes the configuration record at the head of
// every compacted snapshot, keeping each generation self-contained. A
// daemon holding an ingest session re-emits the whole session — begin,
// every acked chunk, commit — so op-log truncation can never drop the
// corpus shard (needed by hdk.build and a resumed begin) out from
// under the index entries that follow it. The records are staged under
// mu and emitted outside it: emit writes through the durable store,
// whose locks must never nest inside mu.
func (s *Server) durableHeader(emit func(kind string, payload []byte) error) error {
	type headerRec struct {
		kind    string
		payload []byte
	}
	var recs []headerRec
	stage := func(kind string, payload []byte) error {
		recs = append(recs, headerRec{kind, payload})
		return nil
	}
	s.mu.Lock()
	if s.ingest != nil {
		s.ingestHeaderLocked(stage)
	} else {
		stage(durConfigure, append([]byte(nil), s.configJSON...))
	}
	s.mu.Unlock()
	for _, r := range recs {
		if err := emit(r.kind, r.payload); err != nil {
			return err
		}
	}
	return nil
}

// Store returns the daemon's store server (nil before configuration).
func (s *Server) Store() *core.StoreServer {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.store
}

// FetchInfo asks a daemon for its self-description.
func FetchInfo(tr transport.Transport, addr string) (Info, error) {
	var info Info
	raw, err := transport.CallRetry(tr, addr, overlay.EncodeEnvelope(ctrlInfo, nil), maxTransientRetries)
	if err != nil {
		return info, err
	}
	err = json.Unmarshal(raw, &info)
	return info, err
}

// FetchMetrics pulls a daemon's full telemetry snapshot over the
// cluster.metrics RPC (versioned binary codec, not JSON — histograms
// ride along intact, so snapshots from several daemons merge
// bucket-exactly for cluster-wide quantiles).
func FetchMetrics(tr transport.Transport, addr string) (telemetry.Snapshot, error) {
	raw, err := transport.CallRetry(tr, addr, overlay.EncodeEnvelope(ctrlMetrics, nil), maxTransientRetries)
	if err != nil {
		return telemetry.Snapshot{}, err
	}
	return telemetry.DecodeSnapshot(raw)
}

// replayedHook, when set (tests only), runs after each store record
// EnableDurability replays, with the daemon still replaying.
var replayedHook func(record int)

// Compile-time check: the server is an overlay member (store attachment
// target).
var _ overlay.Member = (*Server)(nil)
