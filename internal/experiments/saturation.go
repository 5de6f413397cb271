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

	"repro/internal/core"
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

// SaturationOpts parameterizes the saturation scenario. The cluster
// under test must be booted with a tiny -search-workers / -search-queue
// (the test uses 2 and 2) — the scenario cannot set them over the wire,
// and a cluster running with roomy defaults will simply never shed,
// which the Rejected>0 gate turns into a loud failure.
type SaturationOpts struct {
	ClusterOpts
	Clients   int // concurrent closed-loop clients, all on ONE coordinator
	PerClient int // accepted coordinations each client must complete
	// P99Bound caps the 99th-percentile latency of ACCEPTED requests
	// (the successful attempt only — backoff sleeps excluded). With
	// shedding working, accepted latency is bounded by the tiny queue,
	// no matter how much load is offered.
	P99Bound time.Duration
}

// DefaultSaturationOpts is the CI-gated configuration: a 5-process
// cluster at R=3 hammered by 16 concurrent clients on one coordinator.
func DefaultSaturationOpts() SaturationOpts {
	return SaturationOpts{
		ClusterOpts: ClusterOpts{
			Nodes: 5, Replicas: 3, Docs: 120, DFMax: 8, Window: 8,
			Queries: 20, TopK: 10, Seed: 17,
		},
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

// Failures returns one message per gate the run missed.
func (r *SaturationReport) Failures() []string {
	var g gates
	g.check(r.Rejected > 0, "no request was shed — the load never saturated the daemon (queue too roomy?)")
	g.check(r.MissingHint == 0, "%d rejections carried no positive retry-after hint", r.MissingHint)
	g.check(r.ParityMismatches == 0, "%d accepted answers diverged from the in-process reference", r.ParityMismatches)
	g.check(r.AcceptedP99Nanos <= r.P99BoundNanos, "accepted p99 %.3fms exceeds the %.0fms bound — admission is queueing, not shedding", float64(r.AcceptedP99Nanos)/1e6, float64(r.P99BoundNanos)/1e6)
	g.check(r.RecoveryRejected == 0, "%d recovery requests still shed one backoff cycle after the load stopped", r.RecoveryRejected)
	g.check(r.RecoveryMismatches == 0, "%d recovery answers diverged from the reference", r.RecoveryMismatches)
	g.check(r.DaemonRejected == r.Rejected, "daemons count %d sheds, clients observed %d", r.DaemonRejected, r.Rejected)
	g.check(r.QueueDepthAfter == 0, "%d coordinations still queued after the run", r.QueueDepthAfter)
	return g
}

// Clean reports whether every gate of the saturation scenario held.
func (r *SaturationReport) Clean() bool { return len(r.Failures()) == 0 }

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
// load targets addrs[0]. The daemons must have been booted with a tiny
// worker pool and admission queue for the load to actually saturate.
func Saturation(tr transport.Transport, addrs []string, opts SaturationOpts, progress Progress) (*SaturationReport, error) {
	f, err := newFixture(tr, addrs, opts.ClusterOpts, 0, progress)
	if err != nil {
		return nil, err
	}
	progress, c, want := f.progress, f.c, f.want
	if _, _, err := f.build("saturation"); err != nil {
		return nil, err
	}
	// NoCache on every request: the scenario measures admission, not the
	// result cache, and a cache hit would bypass admission entirely.
	reqs := f.requests(true)

	rep := &SaturationReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas, Docs: f.col.M(),
		Queries: len(reqs), Clients: opts.Clients,
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
