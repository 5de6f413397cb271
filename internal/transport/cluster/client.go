// Package cluster turns the in-process HDK engine into a real
// distributed program: a daemon-side Server that exposes one peer's
// index store and control plane over any transport (cmd/hdknode runs one
// per OS process over pooled TCP), a client-side Fabric implementation
// that lets the unchanged core.Engine build and query a cluster of such
// processes, a replica.Repairer that drives churn repair through RPCs,
// and a Harness that spawns and reaps hdknode child processes for
// end-to-end tests.
//
// Every Server is also a query coordinator: the hdk.search RPC
// (Client.SearchVia) runs the engine's lattice traversal inside the
// daemon — over its own membership view (the daemon's Client), with
// replica failover, bounded admission (a saturated daemon sheds excess
// searches with an explicit retry-after hint instead of queueing them
// unboundedly), and a per-node query-result LRU that every locally
// served index mutation invalidates — so a thin client pays one RPC per
// query instead of orchestrating the fan-out itself.
//
// The client fabric is a full-membership, one-hop DHT: every member's
// ring position is overlay.HashNode(addr) — the same placement as the
// in-process overlay — and key ownership resolves locally against
// one overlay.View, so a query pays RPCs only for the index fetches
// themselves (the per-hop network cost the super-peer routing literature
// identifies as the real latency driver).
package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand/v2"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Control-plane service names served by every cluster daemon.
const (
	ctrlInfo     = "cluster.info"
	ctrlMembers  = "cluster.members"
	ctrlJoin     = "cluster.join"
	ctrlAnnounce = "cluster.announce"
	ctrlForget   = "cluster.forget"
	ctrlRepaired = "cluster.repaired"
	ctrlMetrics  = "cluster.metrics"
	// ctrlSearchConfig live-resizes a daemon's query-admission path
	// (Server.ConfigureSearch over the wire).
	ctrlSearchConfig = "cluster.searchconfig"
)

// maxTransientRetries mirrors the overlay fabrics' retry budget for
// transport-level transient drops.
const maxTransientRetries = 8

// Member is a client-side stub for one daemon process: an overlay.Member
// whose index store lives in that process (RemoteStore), plus a local
// service registry for caller-side services — the engine registers each
// peer's notify handler here, and the fabric dispatches those calls
// without touching the network.
type Member struct {
	id   overlay.ID
	addr string

	mu       sync.RWMutex
	services map[string]transport.Handler
}

// newMember returns the stub for the daemon bound at addr, placed on the
// ring at overlay.HashNode(addr).
func newMember(addr string) *Member {
	return &Member{id: overlay.HashNode(addr), addr: addr, services: make(map[string]transport.Handler)}
}

// ID implements overlay.Member.
func (m *Member) ID() overlay.ID { return m.id }

// Addr implements overlay.Member.
func (m *Member) Addr() string { return m.addr }

// Handle implements overlay.Member by registering a CLIENT-side service:
// the daemon's services are registered in its own process, so anything
// registered here is served locally to the engine (peer notify handlers).
func (m *Member) Handle(service string, h transport.Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.services[service] = h
}

// RemoteStore implements overlay.RemoteStore: the member's index store is
// hosted by its daemon process, not by the engine.
func (m *Member) RemoteStore() bool { return true }

func (m *Member) localHandler(service string) (transport.Handler, bool) {
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.services[service]
	return h, ok
}

// Client is the thin cluster client: an overlay.Fabric over a set of
// daemon processes. Its membership is one overlay.View (the embedded
// Membership), so ownership reads are one atomic load of the View's
// successor-list placement on the HashNode ring — identical to the
// in-process overlay's, so a cluster and an in-process ring over the
// same addresses agree on every replica set. The same view records
// churn, so core.Engine.FailNode works when a process dies and every
// traversal over this view knows while a departure is still owed a
// repair.
type Client struct {
	tr transport.Transport
	overlay.Membership
	policy
}

// policy is resolved from Options at Dial time (never zero): the
// chunking policy of every ingest a client streams.
type policy struct {
	chunkTarget int // ingest chunk payload target, bytes
}

// Options configures a cluster client. The zero value of every field
// selects the package default, so callers set only what they care about.
type Options struct {
	// Transport carries every RPC (required).
	Transport transport.Transport
	// Seed, when set, discovers the full membership from that one daemon
	// (the usual thin-client bootstrap). Addrs, when set, enumerates the
	// members explicitly; setting both is an error.
	Seed  string
	Addrs []string
	// ChunkBytes is the hdk.ingest chunk payload target (default 256
	// KiB): bigger chunks amortize per-RPC cost, smaller ones re-ship
	// less on a mid-chunk connection loss.
	ChunkBytes int
}

// DefaultChunkBytes is the ingest chunk payload target Dial resolves a
// zero Options.ChunkBytes to.
const DefaultChunkBytes = 256 << 10

// Dial builds the thin cluster client: it resolves the membership
// (discovered through Seed, with the seed's repair debt, or enumerated
// in Addrs) and fixes the client's chunking policy from the options.
func Dial(o Options) (*Client, error) {
	if o.Transport == nil {
		return nil, fmt.Errorf("cluster: Dial requires a Transport")
	}
	if o.Seed != "" && len(o.Addrs) > 0 {
		return nil, fmt.Errorf("cluster: Dial takes Seed or Addrs, not both")
	}
	seen := view{Members: o.Addrs}
	if o.Seed != "" {
		var err error
		if seen, err = viewOf(o.Transport, o.Seed); err != nil {
			return nil, err
		}
	}
	c := newClient(o)
	c.adopt(seen)
	return c, nil
}

// newClient returns a client with an empty view and the options' policy.
func newClient(o Options) *Client {
	c := &Client{tr: o.Transport, policy: policy{chunkTarget: o.ChunkBytes}}
	if c.chunkTarget <= 0 {
		c.chunkTarget = DefaultChunkBytes
	}
	return c
}

// adopt joins a seed's view — its addresses, a fresh stub for each one
// not yet a member, and its debt — into the client's (View.Adopt).
func (c *Client) adopt(seen view) {
	c.Apply(func(v overlay.View) overlay.View {
		var joined []overlay.Member
		for _, a := range seen.Members {
			if _, ok := v.Member(a); !ok && a != "" {
				joined = append(joined, newMember(a))
			}
		}
		return v.Adopt(joined, seen.Unrepaired)
	})
}

// pinned returns a client over c's current view that later transitions
// on c do not reach: same transport, policy and member stubs.
func (c *Client) pinned() *Client {
	p := &Client{tr: c.tr, policy: c.policy}
	p.Apply(func(overlay.View) overlay.View { return c.View() })
	return p
}

// ChunkTarget reports the resolved hdk.ingest chunk payload target this
// client streams with.
func (c *Client) ChunkTarget() int { return c.chunkTarget }

// view is a daemon's membership as cluster.members and cluster.join
// answer it: the member addresses and, travelling with them, whether
// that membership is still owed a repair sweep — so whoever adopts the
// view (a dialing client, a joining daemon) adopts the debt too.
type view struct {
	Members    []string `json:"members"`
	Unrepaired bool     `json:"unrepaired,omitempty"`
}

// MembersOf asks one daemon for the cluster membership.
func MembersOf(tr transport.Transport, addr string) ([]string, error) {
	v, err := viewOf(tr, addr)
	return v.Members, err
}

func viewOf(tr transport.Transport, addr string) (view, error) {
	var v view
	raw, err := transport.CallRetry(tr, addr, overlay.EncodeEnvelope(ctrlMembers, nil), maxTransientRetries)
	if err == nil {
		err = json.Unmarshal(raw, &v)
	}
	if err != nil {
		return view{}, fmt.Errorf("cluster: members of %s: %w", addr, err)
	}
	return v, nil
}

// CoordinatorReading returns a member other than target whose read plan
// for one lattice level of keys — core.ReadPlan, the function every
// coordinator runs, over the keys' replica sets at factor r — reads some
// key from target; nil when no member's does. A query's first level is
// its terms, so its plan is computable before any probe answers:
// scenarios and tests that must crash a member some query is actually
// READ from (owning a key is not enough once reads are placed) pick
// their coordinator with this.
func (c *Client) CoordinatorReading(keys []string, r int, target string) overlay.Member {
	chains := make([][]string, len(keys))
	for _, m := range c.Members() {
		if m.Addr() == target {
			continue
		}
		for j, key := range keys {
			chains[j] = chains[j][:0]
			for _, o := range c.OwnersOf(key, r) {
				chains[j] = append(chains[j], o.Addr())
			}
		}
		core.ReadPlan(chains, m.Addr())
		for _, chain := range chains {
			if len(chain) > 0 && chain[0] == target {
				return m
			}
		}
	}
	return nil
}

// CallService implements overlay.Fabric: services registered locally on
// the member stub (peer notify handlers) dispatch in-process; everything
// else is an RPC to the daemon bound at addr.
func (c *Client) CallService(addr, service string, req []byte) ([]byte, error) {
	m, ok := c.View().Member(addr)
	if !ok {
		return nil, fmt.Errorf("cluster: %w: %q", transport.ErrUnknownAddress, addr)
	}
	if h, local := m.(*Member).localHandler(service); local {
		return h(req)
	}
	return transport.CallRetry(c.tr, addr, overlay.EncodeEnvelope(service, req), maxTransientRetries)
}

// MarkRepaired implements overlay.Fabric: every daemon in the client's
// view is told which membership the sweep restored, and the client's own
// view settles if it is that membership (View.Repaired). A daemon whose
// own view is the swept one resumes placing its coordinated reads; one
// that has forgotten (or learned) a member the sweep did not account for
// keeps reading primary-first.
func (c *Client) MarkRepaired(swept []string) error {
	payload, err := json.Marshal(swept)
	if err != nil {
		return err
	}
	for _, m := range c.Members() {
		if _, err := c.CallService(m.Addr(), ctrlRepaired, payload); err != nil {
			return fmt.Errorf("cluster: repaired at %s: %w", m.Addr(), err)
		}
	}
	return c.Membership.MarkRepaired(swept)
}

// Forget broadcasts a dead member's address to every member of THIS
// client's view, removing it from the daemons' membership so future
// clients' discovery no longer returns the dead address and the
// daemons' own coordinations stop routing to it. Call it after
// RemoveNode/FailNode when a process is gone for good — daemon views are
// otherwise grow-only.
//
// Safe before or after the repair sweep. A daemon that forgets a member
// while holding an index marks its view as owing a repair and coordinates
// primary-first until told otherwise (cluster.repaired, sent by the
// sweep). If this client's view has already been repaired, Forget says
// so right away, and the daemons — now on that same membership — resume
// placing reads.
func (c *Client) Forget(addr string) error {
	for _, m := range c.Members() {
		if m.Addr() == addr {
			continue
		}
		if _, err := c.CallService(m.Addr(), ctrlForget, []byte(addr)); err != nil {
			return fmt.Errorf("cluster: forget %s at %s: %w", addr, m.Addr(), err)
		}
	}
	v := c.View()
	if _, listed := v.Member(addr); listed || v.Owed() {
		return nil // not the daemons' new membership, or not repaired yet
	}
	return c.MarkRepaired(v.Addrs())
}

// Configure ships the engine configuration to every daemon as an
// hdk.ingest begin that carries no shard; the daemon creates its store
// server (idempotent: re-sending an identical configuration is a no-op).
// Must run before BuildIndex. A daemon refusing because it is
// configured differently comes back wrapped around ErrConfigMismatch;
// one already holding a built index comes back wrapped around
// ErrAlreadyBuilt — both errors.Is-matchable, carried as in-band status
// bytes so they survive the wire as types, not strings.
func (c *Client) Configure(cfg core.Config) error {
	payload, err := json.Marshal(cfg)
	if err != nil {
		return err
	}
	for _, m := range c.Members() {
		if _, err := c.ingestBegin(m.Addr(), ingestBegin{Config: payload}); err != nil {
			return err
		}
	}
	return nil
}

// searchConfig is the cluster.searchconfig payload: a live resize of a
// daemon's query-admission path. Field semantics are exactly
// Server.ConfigureSearch's: Workers < 1, Queue < 0 and Cache < 0 keep
// the daemon's current setting (mirroring cmd/hdknode's flags).
type searchConfig struct {
	Workers int `json:"workers"`
	Queue   int `json:"queue"`
	Cache   int `json:"cache"`
}

// ConfigureSearchVia resizes the admission path of the daemon at addr
// while it serves: workers bounds concurrent coordinations, queue the
// bounded admission wait, cache the query-result LRU. Safe under live
// load — in-flight coordinations drain against the pool they were
// admitted to (see Server.ConfigureSearch) — which is what lets a chaos
// schedule resize daemons mid-workload.
func (c *Client) ConfigureSearchVia(addr string, workers, queue, cache int) error {
	payload, err := json.Marshal(searchConfig{Workers: workers, Queue: queue, Cache: cache})
	if err != nil {
		return err
	}
	if _, err := c.CallService(addr, ctrlSearchConfig, payload); err != nil {
		return fmt.Errorf("cluster: configure search at %s: %w", addr, err)
	}
	return nil
}

// Search overload backoff: how many attempts SearchVia makes against a
// daemon that keeps shedding, and the cap on the exponentially growing
// backoff window.
const (
	searchBackoffAttempts = 5
	searchBackoffCap      = 2 * time.Second
)

// TrySearchVia issues exactly ONE hdk.search attempt against the daemon
// at addr. A daemon shedding under admission control comes back as a
// *core.OverloadError (errors.Is-matchable against core.ErrOverloaded)
// carrying its retry-after hint; callers running their own pacing —
// load generators, saturation probes — use this to see every rejection.
func (c *Client) TrySearchVia(addr string, req core.SearchRequest) (*core.SearchResult, bool, error) {
	res, cached, _, err := c.trySearch(addr, req)
	return res, cached, err
}

// trySearch is one hdk.search attempt, returning the raw trace bytes a
// traced response carries alongside the answer.
func (c *Client) trySearch(addr string, req core.SearchRequest) (*core.SearchResult, bool, []byte, error) {
	raw, err := c.CallService(addr, core.SvcSearch, core.EncodeSearchRequest(req))
	if err != nil {
		return nil, false, nil, fmt.Errorf("cluster: search via %s: %w", addr, err)
	}
	res, cached, trace, err := core.DecodeSearchResponseTrace(raw)
	if err != nil {
		return nil, false, nil, fmt.Errorf("cluster: search via %s: %w", addr, err)
	}
	return res, cached, trace, nil
}

// SearchVia asks the daemon at addr to coordinate one query: the whole
// lattice traversal — routing, batched fetches, replica failover,
// result caching — runs node-side, and the thin client pays exactly one
// RPC. req.Terms must be in Engine.QueryTerms form; the returned bool
// reports whether the daemon answered from its query-result cache. Any
// member of the cluster can coordinate any query.
//
// Overload rejections are retried with capped exponential backoff and
// jitter honoring the daemon's retry-after hint: attempt i sleeps
// between hint and min(hint<<i, searchBackoffCap). A daemon still
// shedding after searchBackoffAttempts attempts surfaces the last
// *core.OverloadError to the caller.
func (c *Client) SearchVia(addr string, req core.SearchRequest) (*core.SearchResult, bool, error) {
	res, cached, _, err := c.search(addr, req)
	return res, cached, err
}

// search is trySearch behind SearchVia's overload backoff.
func (c *Client) search(addr string, req core.SearchRequest) (*core.SearchResult, bool, []byte, error) {
	for attempt := 0; ; attempt++ {
		res, cached, trace, err := c.trySearch(addr, req)
		var ov *core.OverloadError
		if !errors.As(err, &ov) || attempt == searchBackoffAttempts-1 {
			return res, cached, trace, err
		}
		hi := ov.RetryAfter << attempt
		if hi > searchBackoffCap {
			hi = searchBackoffCap
		}
		// Full jitter above the hint floor: never earlier than the
		// daemon asked, spread out so shed clients don't re-arrive as
		// one thundering herd.
		sleep := ov.RetryAfter
		if spread := int64(hi - ov.RetryAfter); spread > 0 {
			sleep += time.Duration(rand.Int64N(spread + 1))
		}
		time.Sleep(sleep)
	}
}

// SearchTraceVia is SearchVia with the request's Trace flag forced on:
// it returns the daemon's per-query span tree alongside the answer.
// The trace is nil when the daemon answered from its result cache (a
// cache hit skips coordination, so there is nothing to trace) — retry
// with NoCache to force a coordinated, traced run.
func (c *Client) SearchTraceVia(addr string, req core.SearchRequest) (*core.SearchResult, *telemetry.Trace, error) {
	req.Trace = true
	res, _, raw, err := c.search(addr, req)
	if err != nil || raw == nil {
		return res, nil, err
	}
	trace, err := telemetry.DecodeTrace(raw)
	if err != nil {
		return nil, nil, fmt.Errorf("cluster: search via %s: trace: %w", addr, err)
	}
	return res, trace, nil
}

// NodeStoreStats pairs a daemon address with its store footprint.
type NodeStoreStats struct {
	Addr  string
	Stats core.StoreStats
}

// StoreStats sweeps every daemon's SvcStats, in ring order.
func (c *Client) StoreStats() ([]NodeStoreStats, error) {
	var out []NodeStoreStats
	for _, m := range c.Members() {
		raw, err := c.CallService(m.Addr(), core.SvcStats, nil)
		if err != nil {
			return nil, fmt.Errorf("cluster: stats of %s: %w", m.Addr(), err)
		}
		st, err := core.DecodeStoreStats(raw)
		if err != nil {
			return nil, fmt.Errorf("cluster: stats of %s: %w", m.Addr(), err)
		}
		out = append(out, NodeStoreStats{Addr: m.Addr(), Stats: st})
	}
	return out, nil
}

// Repairer returns a churn repairer for the cluster at replication
// factor r: it sweeps the daemons' stores over RPC and re-replicates
// under-replicated keys daemon-to-daemon through the client.
func (c *Client) Repairer(r int) *replica.Repairer {
	return &replica.Repairer{Fabric: c, Inv: core.RemoteInventory{Call: c.CallService}, R: r}
}

// Audit runs a read-only replica coverage sweep at factor r.
func (c *Client) Audit(r int) (replica.AuditStats, error) {
	return replica.Audit(c, core.RemoteInventory{Call: c.CallService}, r)
}

// Compile-time interface checks.
var (
	_ overlay.Fabric      = (*Client)(nil)
	_ overlay.Member      = (*Member)(nil)
	_ overlay.RemoteStore = (*Member)(nil)
)
