package experiments

import (
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"reflect"
	"sort"
	"sync"
	"time"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the saturation scenario: offered load pushed
// deliberately past a coordinator's capacity, against daemons booted
// with a tiny worker pool and admission queue (-search-workers /
// -search-queue). It verifies the bounded-serving contract end to end:
// the overloaded daemon SHEDS the excess with explicit rejections
// (every one carrying a positive retry-after hint) instead of queueing
// it unboundedly, the requests it does accept finish with bounded p99,
// every accepted answer stays bit-identical to the in-process
// reference, and once the load stops one backoff cycle later the
// daemon is back to accepting everything with an empty queue. The CI
// cluster-e2e job runs this against real child processes
// (TestTCPSaturationE2E).

// SaturationOpts parameterizes the saturation scenario. Workers and
// Queue are the daemon-side -search-workers / -search-queue settings
// the cluster under test must be booted with — the scenario cannot set
// them over the wire; the harness (or cluster-up.sh) passes them, and
// a cluster running with roomy defaults will simply never shed, which
// the Rejected>0 gate turns into a loud failure.
type SaturationOpts struct {
	Nodes     int // daemon processes
	Replicas  int // replication factor R
	Docs      int // corpus size
	DFMax     int
	Window    int
	Queries   int // distinct queries cycled by the clients
	TopK      int
	Seed      int64
	Workers   int // expected daemon -search-workers (documentation + harness)
	Queue     int // expected daemon -search-queue (documentation + harness)
	Clients   int // concurrent closed-loop clients, all on ONE coordinator
	PerClient int // accepted coordinations each client must complete
	// P99Bound caps the 99th-percentile latency of ACCEPTED requests
	// (the successful attempt only — backoff sleeps excluded). With
	// shedding working, accepted latency is bounded by the tiny queue,
	// no matter how much load is offered.
	P99Bound time.Duration
}

// DefaultSaturationOpts is the CI-gated configuration: a 5-process
// cluster at R=3 whose coordinator runs 2 workers over a 2-deep
// admission queue, hammered by 16 concurrent clients.
func DefaultSaturationOpts() SaturationOpts {
	return SaturationOpts{
		Nodes: 5, Replicas: 3, Docs: 120, DFMax: 8, Window: 8,
		Queries: 20, TopK: 10, Seed: 17,
		Workers: 2, Queue: 2,
		Clients: 16, PerClient: 12,
		P99Bound: 2 * time.Second,
	}
}

// Saturation client pacing: a shed request is retried with capped
// exponential backoff above the daemon's hint; a request still shed
// after satMaxAttempts fails the scenario (the daemon never recovered
// capacity).
const (
	satBackoffCap  = 200 * time.Millisecond
	satMaxAttempts = 100
)

// SaturationReport is the scenario's measurement. See Clean for the
// gates.
type SaturationReport struct {
	Nodes    int `json:"nodes"`
	Replicas int `json:"replicas"`
	Docs     int `json:"docs"`
	Queries  int `json:"queries"`
	Clients  int `json:"clients"`

	// Accepted is the number of coordinations the clients completed
	// (Clients x PerClient); Rejected the shed attempts they absorbed
	// on the way (want > 0 — otherwise the load never saturated and
	// the scenario proved nothing).
	Accepted int    `json:"accepted"`
	Rejected uint64 `json:"rejected"`
	// MissingHint counts rejections whose retry-after hint was not
	// positive (want 0: every shed MUST tell the client when to come
	// back).
	MissingHint int `json:"missing_hint"`
	// ParityMismatches counts accepted answers diverging from the
	// in-process reference (want 0: shedding must never corrupt the
	// answers that ARE served).
	ParityMismatches int `json:"parity_mismatches"`

	// Latency of accepted requests — the successful attempt only.
	AcceptedP50Nanos int64 `json:"accepted_p50_nanos"`
	AcceptedP99Nanos int64 `json:"accepted_p99_nanos"`
	P99BoundNanos    int64 `json:"p99_bound_nanos"`
	// MaxRetryAfterNanos is the largest hint any rejection carried —
	// the "one backoff cycle" the recovery pass waits before probing.
	MaxRetryAfterNanos int64 `json:"max_retry_after_nanos"`

	// Recovery pass: one backoff cycle after the load stops, a serial
	// sweep of the full query set against the same coordinator.
	RecoveryRejected   int `json:"recovery_rejected"`   // want 0
	RecoveryMismatches int `json:"recovery_mismatches"` // want 0

	// Daemon-side accounting after the run. DaemonRejected must equal
	// Rejected (every client-observed shed is one daemon-side
	// increment, and nothing else was shed); QueueDepthAfter must be 0
	// (no admitted coordination left waiting once the load stopped).
	DaemonRejected  uint64 `json:"daemon_rejected"`
	QueueDepthAfter int    `json:"queue_depth_after"`
}

// Clean reports whether every gate of the saturation scenario held.
func (r *SaturationReport) Clean() bool {
	return r.Rejected > 0 && r.MissingHint == 0 && r.ParityMismatches == 0 &&
		r.AcceptedP99Nanos <= r.P99BoundNanos &&
		r.RecoveryRejected == 0 && r.RecoveryMismatches == 0 &&
		r.DaemonRejected == r.Rejected && r.QueueDepthAfter == 0
}

// satClient is one closed-loop client's tally, merged after the run.
type satClient struct {
	latencies   []int64
	rejected    uint64
	missingHint int
	mismatches  int
	maxHint     time.Duration
	err         error
}

// Saturation runs the saturation scenario against an already-running
// cluster: addrs are the daemon addresses (start order); all query
// load targets addrs[0]. The daemons must have been booted with the
// opts' Workers/Queue settings for the load to actually saturate.
func Saturation(tr transport.Transport, addrs []string, opts SaturationOpts, progress Progress) (*SaturationReport, error) {
	if progress == nil {
		progress = nopProgress
	}
	if opts.Nodes == 0 {
		opts.Nodes = len(addrs)
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

	// In-process reference: the parity oracle every accepted answer is
	// checked against.
	ref, _, err := buildServeReference(col, col, opts.Nodes, cfg)
	if err != nil {
		return nil, err
	}
	refOrigin := ref.Network().Members()[0]

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
	for i, part := range col.SplitRoundRobin(opts.Nodes) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			return nil, err
		}
	}
	progress("saturation: building %d docs over %d processes (R=%d)", col.M(), opts.Nodes, opts.Replicas)
	if err := eng.BuildIndex(); err != nil {
		return nil, fmt.Errorf("cluster build: %w", err)
	}

	// Reference answers and wire requests. NoCache on every request:
	// the scenario measures admission, not the result cache, and a
	// cache hit would bypass admission entirely.
	want := make([][]rank.Result, len(queries))
	reqs := make([]core.SearchRequest, len(queries))
	for i, q := range queries {
		res, err := ref.Search(q, refOrigin, opts.TopK)
		if err != nil {
			return nil, err
		}
		want[i] = res.Results
		reqs[i] = core.SearchRequest{Terms: eng.QueryTerms(q), K: opts.TopK, NoCache: true}
	}

	rep := &SaturationReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas, Docs: col.M(),
		Queries: len(queries), Clients: opts.Clients,
		P99BoundNanos: int64(opts.P99Bound),
	}
	target := addrs[0]

	// Overload phase: every client hammers the SAME coordinator,
	// back to back, far past its worker+queue capacity. Shed attempts
	// are retried with capped exponential backoff above the daemon's
	// hint (full jitter, so the herd spreads out); the recorded
	// latency is the successful attempt alone.
	progress("saturation: %d clients x %d coordinations against %s", opts.Clients, opts.PerClient, target)
	tallies := make([]satClient, opts.Clients)
	var wg sync.WaitGroup
	for w := 0; w < opts.Clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &tallies[w]
			for j := 0; j < opts.PerClient; j++ {
				qi := (w + j) % len(reqs)
				attempt := 0
				for {
					t0 := time.Now()
					res, _, err := c.TrySearchVia(target, reqs[qi])
					if err == nil {
						st.latencies = append(st.latencies, time.Since(t0).Nanoseconds())
						if !reflect.DeepEqual(want[qi], res.Results) {
							st.mismatches++
						}
						break
					}
					var ov *core.OverloadError
					if !errors.As(err, &ov) {
						st.err = fmt.Errorf("client %d request %d: %w", w, j, err)
						return
					}
					st.rejected++
					if ov.RetryAfter <= 0 {
						st.missingHint++
					}
					if ov.RetryAfter > st.maxHint {
						st.maxHint = ov.RetryAfter
					}
					if attempt++; attempt >= satMaxAttempts {
						st.err = fmt.Errorf("client %d request %d: still shed after %d attempts", w, j, attempt)
						return
					}
					hi := ov.RetryAfter << min(attempt, 4)
					if hi > satBackoffCap {
						hi = satBackoffCap
					}
					sleep := ov.RetryAfter
					if spread := int64(hi - ov.RetryAfter); spread > 0 {
						sleep += time.Duration(rand.Int64N(spread + 1))
					}
					time.Sleep(sleep)
				}
			}
		}(w)
	}
	wg.Wait()

	var latencies []int64
	var maxHint time.Duration
	for i := range tallies {
		st := &tallies[i]
		if st.err != nil {
			return nil, st.err
		}
		latencies = append(latencies, st.latencies...)
		rep.Rejected += st.rejected
		rep.MissingHint += st.missingHint
		rep.ParityMismatches += st.mismatches
		if st.maxHint > maxHint {
			maxHint = st.maxHint
		}
	}
	rep.Accepted = len(latencies)
	rep.MaxRetryAfterNanos = int64(maxHint)
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	if n := len(latencies); n > 0 {
		rep.AcceptedP50Nanos = latencies[n/2]
		rep.AcceptedP99Nanos = latencies[n*99/100]
	}
	progress("saturation: %d accepted (p99 %.3fms), %d shed (max hint %v)",
		rep.Accepted, float64(rep.AcceptedP99Nanos)/1e6, rep.Rejected, maxHint)

	// Recovery pass: one backoff cycle after the load stops, the same
	// coordinator must accept a serial sweep of the full query set
	// without shedding a single request.
	time.Sleep(maxHint)
	for i, req := range reqs {
		res, _, err := c.TrySearchVia(target, req)
		if err != nil {
			if errors.Is(err, core.ErrOverloaded) {
				rep.RecoveryRejected++
				continue
			}
			return nil, fmt.Errorf("recovery query %d: %w", i, err)
		}
		if !reflect.DeepEqual(want[i], res.Results) {
			rep.RecoveryMismatches++
		}
	}
	progress("saturation: recovery %d rejected, %d mismatches", rep.RecoveryRejected, rep.RecoveryMismatches)

	// Daemon-side accounting: the cluster-wide shed counter must match
	// what the clients observed, and nobody may still be queued.
	for _, addr := range addrs {
		info, err := cluster.FetchInfo(tr, addr)
		if err != nil {
			return nil, fmt.Errorf("info from %s: %w", addr, err)
		}
		rep.DaemonRejected += info.SearchRejected
		rep.QueueDepthAfter += info.SearchQueueDepth
	}
	return rep, nil
}

// Fprint renders the saturation scenario report.
func (r *SaturationReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Saturation — %d hdknode daemons, R=%d, %d docs, %d queries, %d clients on one coordinator\n",
		r.Nodes, r.Replicas, r.Docs, r.Queries, r.Clients)
	fmt.Fprintf(w, "accepted %d: p50 %.3fms, p99 %.3fms (bound %.0fms) | shed %d (%d without hint, max hint %.0fms)\n",
		r.Accepted, float64(r.AcceptedP50Nanos)/1e6, float64(r.AcceptedP99Nanos)/1e6,
		float64(r.P99BoundNanos)/1e6, r.Rejected, r.MissingHint, float64(r.MaxRetryAfterNanos)/1e6)
	fmt.Fprintf(w, "parity: %d mismatches | recovery: %d rejected, %d mismatches | daemons: %d shed, queue depth %d\n",
		r.ParityMismatches, r.RecoveryRejected, r.RecoveryMismatches, r.DaemonRejected, r.QueueDepthAfter)
}
