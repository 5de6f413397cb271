package core

import (
	"fmt"
	"math/bits"
	"strconv"
	"sync"
	"time"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/telemetry"
)

// Registry series the query coordinator emits. Declared as package
// consts so every registration site shares one definition (enforced by
// the meterednames analyzer).
const (
	metricQueryProbes     = "hdk_query_probes_total"
	metricQueryFetchRPCs  = "hdk_query_fetch_rpcs_total"
	metricQueryPostings   = "hdk_query_postings_total"
	metricQueryLevelNanos = "hdk_query_level_nanoseconds"
	metricQueryFailovers  = "hdk_query_failovers_total"
	// Found keys per level: with the probes series, a level's absent-probe
	// ratio (1 - found/probes) is derivable from any scrape.
	metricQueryFoundKeys = "hdk_query_found_keys_total"
	// Fetch batches answered from the coordinator's own store: with the
	// fetch-RPC series, the local/remote split of a query's batches.
	metricQueryLocalFetches = "hdk_query_local_fetches_total"
)

// QueryMetrics is the set of registry series every traversal counts
// into, each handle resolved once: a label-keyed registry lookup costs a
// sort and several allocations, which the traversal would otherwise pay
// four times per level per query. The daemon builds one at start-up and
// hands it to every Coordinator it runs; an Engine builds its own.
type QueryMetrics struct {
	levels       [MaxKeySize + 1]levelMetrics // indexed by key size; [0] unused
	failovers    *telemetry.Counter
	localFetches *telemetry.Counter
}

// levelMetrics is one lattice level's series.
type levelMetrics struct {
	probes, fetchRPCs, postings, found *telemetry.Counter
	nanos                              *telemetry.Histogram
}

// NewQueryMetrics registers the coordinator series on reg, one set per
// lattice level up to MaxKeySize.
func NewQueryMetrics(reg *telemetry.Registry) *QueryMetrics {
	m := &QueryMetrics{
		failovers:    reg.Counter(metricQueryFailovers),
		localFetches: reg.Counter(metricQueryLocalFetches),
	}
	for size := 1; size <= MaxKeySize; size++ {
		lvl := telemetry.L("level", strconv.Itoa(size))
		m.levels[size] = levelMetrics{
			probes:    reg.Counter(metricQueryProbes, lvl),
			fetchRPCs: reg.Counter(metricQueryFetchRPCs, lvl),
			postings:  reg.Counter(metricQueryPostings, lvl),
			found:     reg.Counter(metricQueryFoundKeys, lvl),
			nanos:     reg.Histogram(metricQueryLevelNanos, lvl),
		}
	}
	return m
}

// This file hosts the query coordination path as a standalone unit: the
// level-synchronous, batched, parallel lattice traversal that
// Engine.Search has always run, factored so it needs neither peers nor a
// vocabulary — only a fabric, the model parameters and the query's
// canonical term strings. The Engine delegates to it (terms rendered
// through its vocabulary), and the cluster daemon runs it directly as
// the hdk.search coordinator: a thin client ships ONE RPC with the
// pre-rendered terms, and the daemon traverses the lattice against its
// own membership table. Both callers execute literally the same
// traversal code, so a coordinated answer cannot drift from a
// client-orchestrated one.

// Coordinator runs coordinated searches over a fabric without an Engine
// — the daemon-side query path of the multi-process deployment. Net is
// typically a cluster client built over the daemon's own membership
// view; Cfg supplies SMax and ReplicationFactor (the daemon uses the
// configuration the building client shipped, so coordination agrees
// with placement). The traversal caches nothing: the cluster daemon
// caches whole results one layer up. Metrics (required) receives the
// registry series the live cluster is observed through: per-level
// probe/found/RPC/posting counters, per-level latency histograms, the
// failover and the local-fetch counters.
//
// From is the coordinating member: the replica reads prefer (ReadPlan)
// — a daemon passes its own member stub. It may be nil, which reads
// every key primary-first; so does any traversal over a fabric whose
// view still owes a repair. Store, when non-nil, is From's own store:
// a batch read from From is then a direct store call, with no request
// or response encoded. Left nil, From's batches go over Net like any
// other.
type Coordinator struct {
	Net     overlay.Fabric
	Cfg     Config
	From    overlay.Member
	Store   *StoreServer
	Metrics *QueryMetrics
}

// Search maps pre-rendered query terms onto the lattice of their
// subsets and probes the index, returning the ranked answer and the
// per-query cost metrics. terms must be the canonical wire form the
// engine produces (Engine.QueryTerms): deduplicated, very-frequent
// terms dropped, ascending TermID order — the order decides candidate
// enumeration and therefore score accumulation, so a coordinator fed
// the same terms returns bit-identical results to the client engine.
func (c *Coordinator) Search(terms []string, k int) (*SearchResult, error) {
	return c.SearchTraced(terms, k, nil)
}

// SearchTraced is Search with an optional trace: when tb is non-nil the
// traversal records a span per level, per fetch wave and per owner RPC
// under tb's root (the caller owns the root span and calls Finish).
// A nil tb costs nothing on the traversal path: span attributes are
// built only while a trace is recording.
func (c *Coordinator) SearchTraced(terms []string, k int, tb *telemetry.TraceBuilder) (*SearchResult, error) {
	ls := newLatticeSearch(c.Net, c.From, c.Cfg, c.Metrics)
	ls.trace = tb
	if c.Store != nil {
		ls.store = c.Store.store
	}
	return ls.run(terms, min(c.Cfg.SMax, len(terms)), k)
}

// QueryTerms renders a query into the coordinator wire form: the
// canonical strings of its distinct, non-very-frequent terms in
// ascending TermID order. This is exactly the preprocessing
// Engine.Search applies before the traversal, exposed so a thin client
// can hand a coordinator the same term list the engine itself would
// probe with.
func (e *Engine) QueryTerms(q corpus.Query) []string {
	terms := dedupTerms(q.Terms)
	out := make([]string, 0, len(terms))
	for _, t := range terms {
		if int(t) < len(e.vf) && !e.vf[t] {
			out = append(out, e.vocab[t])
		}
	}
	return out
}

// searchFanout bounds how many index nodes one lattice level contacts
// concurrently (the α-style parallelism of Kademlia-family lookups). The
// ranked answer is identical at any fan-out.
const searchFanout = 4

// latticeSearch is the per-query traversal state shared by Engine.Search
// and Coordinator.Search: the fabric to probe, the failover and fan-out
// parameters and the series it counts into.
type latticeSearch struct {
	net        overlay.Fabric
	from       overlay.Member
	self       string    // from's address ("" without a coordinating member)
	placeReads bool      // every chain member holds a full copy: ReadPlan may choose among them
	store      *hdkStore // from's own store, read directly (nil: over the fabric)
	replicas   int
	fanout     int
	metrics    *QueryMetrics
	trace      *telemetry.TraceBuilder // nil: tracing off (nil-safe methods)

	localFetches int // fetch batches served by self, this query
}

func newLatticeSearch(net overlay.Fabric, from overlay.Member, cfg Config, metrics *QueryMetrics) *latticeSearch {
	ls := &latticeSearch{
		net:      net,
		from:     from,
		replicas: max(cfg.ReplicationFactor, 1),
		fanout:   searchFanout,
		metrics:  metrics,
	}
	if from != nil {
		ls.self = from.Addr()
	}
	// After a departure and until a repair sweep completes, the member
	// promotion added to a replica set holds no (or a partial) copy; only
	// the primary — an old replica — is safe to read. The fabric knows.
	ls.placeReads = !net.View().Owed()
	return ls
}

// run traverses the lattice of term subsets level-synchronously: each
// level's candidates survive subsumption pruning against the previous
// level, their replica chains resolve from the fabric's view, and every
// chosen reader (probeLevel, ReadPlan) receives a single multi-key fetch
// — at most fanout in flight.
// Found keys' bounded posting lists are unioned in candidate order (so
// the ranked answer is identical at any fan-out) and ranked. A query
// has at most maxSearchTerms terms: a candidate is a bitmask over them.
func (ls *latticeSearch) run(terms []string, maxSize, k int) (*SearchResult, error) {
	if len(terms) > maxSearchTerms {
		return nil, fmt.Errorf("core: %d query terms, at most %d", len(terms), maxSearchTerms)
	}
	res := &SearchResult{}
	status := make(map[uint64]KeyStatus) // by term-subset mask
	// The score accumulator ping-pongs between two pooled buffers: each
	// union writes into the spare, then the roles swap. Safe because
	// TopKByScore copies the accumulator into the result, so nothing
	// references either buffer once the query returns them to the pool.
	bufs := accPool.Get().(*accBuffers)
	acc, spare := bufs.a[:0], bufs.b[:0]
	defer func() {
		bufs.a, bufs.b = acc, spare
		accPool.Put(bufs)
	}()
	for size := 1; size <= maxSize; size++ {
		outcomes := levelCandidates(terms, size, status)
		if len(outcomes) == 0 {
			// No key of this size survives pruning, so no superset can be
			// stored either: the traversal is done.
			break
		}
		res.Rounds++
		rpcsBefore := res.RPCs
		failBefore := res.Failovers
		postsBefore := res.FetchedPosts
		foundBefore := res.FoundKeys
		//hdkvet:ignore determinism -- wall-clock feeds only the level-latency histogram, never a result or encoded byte
		levelStart := time.Now()
		lvlSpan := -1
		if ls.trace != nil {
			lvlSpan = ls.trace.Start(0, "level",
				telemetry.Num("level", uint64(size)),
				telemetry.Num("candidates", uint64(len(outcomes))))
		}
		if err := ls.probeLevel(outcomes, res, lvlSpan); err != nil {
			return nil, err
		}
		// Accumulate in candidate-enumeration order: float score addition
		// is order-sensitive, so this keeps parallel fan-out bit-identical
		// to a serial probe sequence.
		unionSpan := ls.trace.Start(lvlSpan, "union")
		for _, o := range outcomes {
			res.ProbedKeys++
			status[o.mask] = o.status
			if o.status == StatusAbsent {
				continue
			}
			res.FoundKeys++
			res.FetchedPosts += uint64(len(o.list))
			spare = postings.UnionInto(spare, acc, o.list)
			acc, spare = spare, acc
		}
		ls.trace.End(unionSpan)
		if ls.trace != nil {
			ls.trace.Annotate(lvlSpan,
				telemetry.Num("rpcs", uint64(res.RPCs-rpcsBefore)),
				telemetry.Num("failovers", uint64(res.Failovers-failBefore)),
				telemetry.Num("found", uint64(res.FoundKeys-foundBefore)),
				telemetry.Num("postings", res.FetchedPosts-postsBefore))
		}
		ls.trace.End(lvlSpan)
		lvl := &ls.metrics.levels[size]
		lvl.probes.Add(uint64(len(outcomes)))
		lvl.found.Add(uint64(res.FoundKeys - foundBefore))
		lvl.fetchRPCs.Add(uint64(res.RPCs - rpcsBefore))
		lvl.postings.Add(res.FetchedPosts - postsBefore)
		lvl.nanos.ObserveDuration(time.Since(levelStart))
	}
	ls.metrics.failovers.Add(uint64(res.Failovers))
	ls.metrics.localFetches.Add(uint64(ls.localFetches))
	rankSpan := ls.trace.Start(0, "rank")
	res.Results = rank.TopKByScore(acc, k)
	if ls.trace != nil {
		ls.trace.Annotate(rankSpan,
			telemetry.Num("k", uint64(k)),
			telemetry.Num("results", uint64(len(res.Results))))
	}
	ls.trace.End(rankSpan)
	return res, nil
}

// accBuffers is one query's pair of score-accumulator buffers; the pool
// lets steady-state queries union posting lists with zero allocations
// once the buffers have grown to the working-set size.
type accBuffers struct{ a, b postings.List }

var accPool = sync.Pool{New: func() any { return &accBuffers{} }}

// levelCandidates enumerates the size-`size` subsets of the ordered
// query terms that survive subsumption pruning, as probe outcomes with
// the subset's mask and canonical key. Subsets come in lexicographic
// order of their term positions. Pruning consults only the previous
// level's statuses, which is what makes the traversal level-synchronous:
// within a level every candidate can be probed independently. A key can
// only be stored if every immediate sub-key is non-discriminative (an
// HDK sub-key means redundancy filtering dropped the superset; an absent
// sub-key means the superset cannot occur), so a candidate survives only
// if each mask with one bit cleared is NDK; only survivors pay for a
// canonical string.
func levelCandidates(terms []string, size int, status map[uint64]KeyStatus) []probeOutcome {
	var out []probeOutcome
	var rec func(start, left int, mask uint64)
	rec = func(start, left int, mask uint64) {
		if left == 0 {
			if size == 1 || allSubsetsND(mask, status) {
				out = append(out, probeOutcome{mask: mask, canonical: canonicalKey(terms, mask)})
			}
			return
		}
		for i := start; i <= len(terms)-left; i++ {
			rec(i+1, left-1, mask|1<<i)
		}
	}
	rec(0, size, 0)
	return out
}

// allSubsetsND reports whether every immediate sub-key of mask (one bit
// cleared) was probed as non-discriminative.
func allSubsetsND(mask uint64, status map[uint64]KeyStatus) bool {
	for m := mask; m != 0; m &= m - 1 {
		if status[mask&^(m&-m)] != StatusNDK {
			return false
		}
	}
	return true
}

// canonicalKey joins the terms mask selects into the key's DHT wire
// form. terms are in ascending TermID order, so the join equals
// Key.CanonicalString.
func canonicalKey(terms []string, mask uint64) string {
	if mask&(mask-1) == 0 {
		return terms[bits.TrailingZeros64(mask)]
	}
	buf := make([]byte, 0, 64) // on the stack for keys up to 64 bytes
	for m := mask; m != 0; m &= m - 1 {
		if m != mask {
			buf = append(buf, keySeparator...)
		}
		buf = append(buf, terms[bits.TrailingZeros64(m)]...)
	}
	return string(buf)
}

// probeOutcome is one candidate key's answer during a level probe.
type probeOutcome struct {
	mask      uint64 // the key's term subset, one bit per query term position
	canonical string
	status    KeyStatus
	list      postings.List
}

// probeState tracks one pending key's failover position: the outcome
// slot it fills and the replica addresses left to try, current first.
type probeState struct {
	idx    int
	owners []string
}

// ownerBatch is one wave's fetch batch: the keys currently assigned to
// one replica address, in candidate order.
type ownerBatch struct {
	addr   string
	states []probeState
	err    error
}

// replicaChain returns a key's ordered replica addresses: the members
// the fabric's OwnersOf names, primary first. The insert fan-out writes
// to every address of this chain and the fetch path reads from one of
// them (ReadPlan picks which, failover walks the rest), so write
// placement and read placement can never diverge. The chain is empty
// only on an empty overlay.
func replicaChain(net overlay.Fabric, r int, canonical string) []string {
	owners := net.OwnersOf(canonical, r)
	chain := make([]string, len(owners))
	for i, m := range owners {
		chain[i] = m.Addr()
	}
	return chain
}

// probeLevel resolves one lattice level: the keys' replica chains are
// resolved from the fabric's view, ReadPlan chooses each key's reader — the
// coordinating member itself when it holds a copy, else the fewest other
// members that cover the level — and every chosen reader gets one
// batched fetch, at most fanout in flight. A batch whose reader fails
// (unreachable after transport retries, departed, or answering garbage)
// is re-sent to the keys' next replica — successive waves walk each
// key's chain until a copy answers or every replica is exhausted; each
// re-sent batch counts one Failover.
// Workers fill disjoint outcome slots, which stay in candidate order so
// accumulation is deterministic regardless of which replica answered.
func (ls *latticeSearch) probeLevel(outcomes []probeOutcome, res *SearchResult, lvlSpan int) error {
	fanout := ls.fanout

	// Resolve every key's replica set from the fabric's view.
	routeSpan := -1
	if ls.trace != nil {
		routeSpan = ls.trace.Start(lvlSpan, "route", telemetry.Num("keys", uint64(len(outcomes))))
	}
	chains := make([][]string, len(outcomes))
	for j, o := range outcomes {
		if chains[j] = replicaChain(ls.net, ls.replicas, o.canonical); len(chains[j]) == 0 {
			ls.trace.End(routeSpan)
			return fmt.Errorf("core: no owner for key %q: empty overlay", o.canonical)
		}
	}
	if ls.placeReads {
		ReadPlan(chains, ls.self)
	}
	ls.trace.End(routeSpan)
	states := make([]probeState, len(outcomes))
	for j, chain := range chains {
		states[j] = probeState{idx: j, owners: chain}
	}

	// Fetch waves: wave 0 contacts every key's chosen reader; keys whose
	// batch failed advance to their next replica and go into the next
	// wave. At most len(chain) waves, so the walk always terminates.
	for wave := 0; len(states) > 0; wave++ {
		// Group per current reader, preserving candidate order both
		// across batches and inside each batch — except that self's
		// batch, if any, leads: it is served first, in this goroutine.
		var batches []ownerBatch
		for _, st := range states {
			addr := st.owners[0]
			b := 0
			for b < len(batches) && batches[b].addr != addr {
				b++
			}
			if b == len(batches) {
				batches = append(batches, ownerBatch{addr: addr})
			}
			batches[b].states = append(batches[b].states, st)
		}
		fetch := func(j int) {
			b := &batches[j]
			idxs := make([]int, len(b.states))
			for i, st := range b.states {
				idxs[i] = st.idx
			}
			fetchSpan := ls.trace.Start(lvlSpan, "fetch")
			b.err = ls.fetchOwnerBatch(b.addr, idxs, outcomes)
			if ls.trace != nil {
				ls.trace.Annotate(fetchSpan,
					telemetry.Str("owner", b.addr),
					telemetry.Num("keys", uint64(len(idxs))),
					telemetry.Num("wave", uint64(wave)),
					telemetry.Str("local", strconv.FormatBool(b.addr == ls.self)))
				if b.err != nil {
					ls.trace.Annotate(fetchSpan, telemetry.Str("error", b.err.Error()))
				}
			}
			ls.trace.End(fetchSpan)
		}
		// Self's batch is a store call on a daemon, not an RPC: serve it
		// before fanning out, so a wave of {self, one remote reader} — the
		// common shape once reads are placed — starts no goroutine at all.
		remote := 0
		for j := range batches {
			if batches[j].addr == ls.self {
				batches[0], batches[j] = batches[j], batches[0]
				fetch(0)
				ls.localFetches++
				remote = 1
				break
			}
		}
		forEachLimit(len(batches)-remote, fanout, func(j int) { fetch(remote + j) })
		res.RPCs += len(batches)
		if wave > 0 {
			res.Failovers += len(batches)
		}

		var retry []probeState
		for _, b := range batches {
			if b.err == nil {
				continue
			}
			for _, st := range b.states {
				if len(st.owners) <= 1 {
					return fmt.Errorf("core: fetch %q: all %d replicas failed: %w",
						outcomes[st.idx].canonical, ls.replicas, b.err)
				}
				retry = append(retry, probeState{idx: st.idx, owners: st.owners[1:]})
			}
		}
		states = retry
	}
	return nil
}

// fetchReqPool recycles fetch-request buffers. Safe because CallService
// never retains the request past its return: transports write it to the
// wire (retries included) before returning, and in-process handlers
// decode it into their own copies.
var fetchReqPool = sync.Pool{New: func() any { return new([]byte) }}

// fetchOwnerBatch issues one multi-key fetch to an index node and fills
// the outcome slots assigned to it. The coordinator's own store, when it
// has one, answers self's batch directly: the same scored lists the wire
// would carry, without encoding and decoding them.
func (ls *latticeSearch) fetchOwnerBatch(addr string, idxs []int, outcomes []probeOutcome) error {
	keys := make([]string, len(idxs))
	for i, idx := range idxs {
		keys[i] = outcomes[idx].canonical
	}
	if ls.store != nil && addr == ls.self {
		for i, r := range ls.store.fetchBatch(keys) {
			outcomes[idxs[i]].status, outcomes[idxs[i]].list = r.status, r.list
		}
		return nil
	}
	bp := fetchReqPool.Get().(*[]byte)
	req := postings.EncodeKeyList((*bp)[:0], keys)
	raw, err := ls.net.CallService(addr, SvcFetchBatch, req)
	*bp = req
	fetchReqPool.Put(bp)
	if err != nil {
		return err
	}
	results, err := decodeFetchBatchResp(raw)
	if err != nil {
		return err
	}
	if len(results) != len(keys) {
		return fmt.Errorf("%w: %d answers for %d keys", errCorruptRPC, len(results), len(keys))
	}
	for i, r := range results {
		if r.key != keys[i] {
			return fmt.Errorf("%w: answer for key %q, want %q", errCorruptRPC, r.key, keys[i])
		}
		outcomes[idxs[i]].status, outcomes[idxs[i]].list = r.status, r.list
	}
	return nil
}
