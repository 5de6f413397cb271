package experiments

import (
	"errors"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file implements the chaos scenario: a closed-loop query workload
// runs CONTINUOUSLY against rotating hdknode coordinators while a
// seeded fault schedule (faultsched.go) fires compound failures at the
// cluster — SIGKILL + warm restart, incremental update waves, live
// admission resizes, replica repair sweeps — with pressure-driven log
// compactions (a tiny -compact-bytes) rolling generations underneath
// everything. The workload never pauses for an action: queries overlap
// the downtime windows (node-side replica failover keeps them
// answering), overlap the waves (a version-windowed recall oracle keeps
// them checkable while the index transitions), and overlap the resizes
// (overload sheds are counted, never failures). The scenario gates on
// recall@K >= RecallFloor against a live-updated in-process reference,
// ZERO non-excused query errors, bounded p99 from the daemons' merged
// coordination histograms, at least MinRollovers generation rollovers
// under load, and a post-chaos sweep proving bit-identical parity on
// every (query, daemon) pair with zero under-replicated keys.
//
// Soak mode is the same scenario time-compressed for durability: more
// waves against a smaller -compact-bytes cycle every daemon through >=
// MinNodeRollovers snapshot/compaction generations, and the run ends
// with a full fingerprint census, a rolling SIGKILL+restart of every
// daemon, and a second census + parity sweep proving the restored
// cluster is byte-identical to the one that went down.

// ChaosOpts parameterizes the chaos scenario.
type ChaosOpts struct {
	ClusterOpts
	WaveDocs int // documents staged per update wave
	Workers  int // concurrent closed-loop query workers

	// ScheduleSeed + Schedule derive the fault schedule
	// (GenerateSchedule) unless Replay is set, in which case Replay is
	// validated and fired verbatim — the `hdkbench -chaos -seed N` and
	// CI-artifact reproduction paths.
	ScheduleSeed uint64
	Schedule     ScheduleOpts
	Replay       *FaultSchedule

	// RecallFloor gates the mean windowed recall@TopK (see the recall
	// oracle below); P99Bound caps the merged coordination p99.
	RecallFloor float64
	P99Bound    time.Duration
	// MinRollovers is the cluster-wide generation-rollover floor: proof
	// that compaction cycles actually interleaved with the chaos.
	MinRollovers int

	// Soak turns on the durability gates: MinNodeRollovers generations
	// per daemon, then census -> rolling restart -> census + parity.
	Soak             bool
	MinNodeRollovers int
}

// DefaultChaosOpts is the CI chaos gate's configuration: a 5-process
// cluster at R=3 under a 4-worker closed loop, with the default
// schedule budget (3 kill/restart cycles, 2 waves, 1 repair, 2
// resizes).
func DefaultChaosOpts() ChaosOpts {
	return ChaosOpts{
		ClusterOpts: DefaultClusterOpts(), WaveDocs: 25, Workers: 4,
		ScheduleSeed: 1,
		RecallFloor:  0.99, P99Bound: 2 * time.Second, MinRollovers: 1,
	}
}

// DefaultSoakOpts is the time-compressed soak configuration: six update
// waves (paired with a small daemon -compact-bytes, each wave's op-log
// growth forces compactions) so every daemon crosses at least three
// snapshot/compaction generation boundaries before the final
// restore-parity check.
func DefaultSoakOpts() ChaosOpts {
	o := DefaultChaosOpts()
	o.Soak = true
	o.Schedule = ScheduleOpts{Kills: 3, Waves: 6, Repairs: 1, Resizes: 2}
	o.MinRollovers = 3
	o.MinNodeRollovers = 3
	return o
}

// metricCoordination is the daemon-side coordination latency histogram
// the p99 gate reads (registered by the server's instrumentation).
const metricCoordination = "hdk_search_coordination_nanoseconds"

// ChaosPhase is one inter-action interval of the run: the queries the
// workload completed in it and the merged coordination p99 of exactly
// that interval (per-node histogram deltas via HistogramValue.Sub,
// folded with Merge).
type ChaosPhase struct {
	// Action labels the schedule step that CLOSED the phase ("drain"
	// for the tail after the last action).
	Action   string `json:"action"`
	Queries  int    `json:"queries"`
	P99Nanos int64  `json:"p99_nanos"`
}

// ChaosReport is the scenario's measurement, including the schedule
// that produced it — serialized into the failure artifact, the report
// alone suffices to replay the run.
type ChaosReport struct {
	Nodes     int  `json:"nodes"`
	Replicas  int  `json:"replicas"`
	Docs      int  `json:"docs"`
	FinalDocs int  `json:"final_docs"`
	Soak      bool `json:"soak,omitempty"`

	Schedule FaultSchedule `json:"schedule"`
	Kills    int           `json:"kills"`
	Waves    int           `json:"waves"`
	Repairs  int           `json:"repairs"`
	Resizes  int           `json:"resizes"`

	// Workload accounting. Issued counts completed coordinations;
	// Overloads admission sheds absorbed with backoff (never failures);
	// Excused transport errors against a daemon that was down or
	// restarting when the worker re-checked (the schedule's own doing);
	// Errors everything else — the zero-gate.
	Issued     int    `json:"issued"`
	Overloads  uint64 `json:"overloads"`
	Excused    uint64 `json:"excused"`
	Errors     int    `json:"errors"`
	FirstError string `json:"first_error,omitempty"`
	// Failovers counts fetch batches the coordinators re-sent to
	// alternate replicas — evidence the workload actually overlapped
	// the downtime windows.
	Failovers int `json:"failovers"`

	// Version-windowed recall@TopK vs the live-updated in-process
	// reference: each answer is scored against every reference version
	// that was plausibly current while the query was in flight, and the
	// best match counts (a query overlapping a wave legitimately
	// reflects either side of it, or a mix).
	WindowedQueries int     `json:"windowed_queries"`
	MeanRecall      float64 `json:"mean_recall"`
	MinRecall       float64 `json:"min_recall"`
	RecallFloor     float64 `json:"recall_floor"`

	// Merged coordination latency across all daemons and phases.
	P99Nanos      int64        `json:"p99_nanos"`
	P99BoundNanos int64        `json:"p99_bound_nanos"`
	Phases        []ChaosPhase `json:"phases"`

	// Durable-store generation rollovers between workload start and
	// drain, from the hdk_durable_generation gauge (parsed from disk
	// filenames, so it survives SIGKILL and counter resets).
	GenerationRollovers int `json:"generation_rollovers"`
	MinNodeRollovers    int `json:"min_node_rollovers"`
	RolloverFloor       int `json:"rollover_floor"`
	NodeRolloverFloor   int `json:"node_rollover_floor,omitempty"`

	// Post-chaos sweep: every (query, daemon) coordination vs the final
	// reference, then a replica coverage audit.
	FinalMismatches int `json:"final_mismatches"`
	UnderReplicated int `json:"under_replicated"`

	// Soak-only: fingerprint census drift and parity mismatches across
	// the final rolling restart of every daemon.
	RestoreFingerprintMismatches int `json:"restore_fingerprint_mismatches,omitempty"`
	RestoreParityMismatches      int `json:"restore_parity_mismatches,omitempty"`
}

// Failures returns one message per gate the run missed; the soak
// gates apply only in soak mode.
func (r *ChaosReport) Failures() []string {
	var g gates
	g.check(r.Issued > 0, "workload issued no queries — the scenario measured nothing")
	g.check(r.Errors == 0, "%d non-excused query errors under chaos, want 0 (first: %s)", r.Errors, r.FirstError)
	g.check(r.WindowedQueries > 0, "no query was scored against the recall oracle")
	g.check(r.MeanRecall >= r.RecallFloor, "mean recall@K %.4f under continuous chaos, want >= %.2f", r.MeanRecall, r.RecallFloor)
	g.check(r.P99Nanos <= r.P99BoundNanos, "merged coordination p99 %.3fms exceeds the %.0fms bound", float64(r.P99Nanos)/1e6, float64(r.P99BoundNanos)/1e6)
	g.check(r.GenerationRollovers >= r.RolloverFloor, "%d generation rollovers under load, want >= %d — compaction never interleaved", r.GenerationRollovers, r.RolloverFloor)
	g.check(r.FinalMismatches == 0, "%d post-chaos coordinations diverged from the reference, want bit-identical", r.FinalMismatches)
	g.check(r.UnderReplicated == 0, "%d keys under-replicated after the run, want 0", r.UnderReplicated)
	if r.Soak {
		g.check(r.MinNodeRollovers >= r.NodeRolloverFloor, "min %d generation rollovers per node, want >= %d — the soak never cycled the stores", r.MinNodeRollovers, r.NodeRolloverFloor)
		g.check(r.RestoreFingerprintMismatches == 0, "%d fingerprint drifts across the rolling restart, want a byte-identical restore", r.RestoreFingerprintMismatches)
		g.check(r.RestoreParityMismatches == 0, "%d parity mismatches after the rolling restart, want 0", r.RestoreParityMismatches)
	}
	return g
}

// Clean reports whether every gate of the chaos scenario held.
func (r *ChaosReport) Clean() bool { return len(r.Failures()) == 0 }

// docSet is one reference answer reduced to its member set for recall.
type docSet map[corpus.DocID]struct{}

// chaosWorker is one closed-loop worker's tally, merged after the run.
type chaosWorker struct {
	issued    int
	windowed  int
	recallSum float64
	minRecall float64
	overloads uint64
	excused   uint64
	failovers int
	errs      int
	firstErr  error
	phases    []int // completed queries per phase
}

// chaosWorkerErrBudget stops a worker that keeps failing for real —
// the gate needs one error, not a flood of retries against a wedged
// cluster.
const chaosWorkerErrBudget = 25

// Chaos runs the chaos scenario against an already-running durable
// cluster: addrs are the daemon addresses (start order), kill(i)
// SIGKILLs and reaps the process behind addrs[i], and restart(i) must
// bring it back ON THE SAME ADDRESS from its data directory and return
// only once it is serving with converged membership (Harness.Restart +
// Harness.AwaitMembers). The daemons should run with a small
// -compact-bytes so the waves' op-log growth forces the generation
// rollovers the scenario gates on.
func Chaos(tr transport.Transport, addrs []string, kill, restart func(i int) error,
	opts ChaosOpts, progress Progress) (*ChaosReport, error) {
	sched := GenerateSchedule(opts.ScheduleSeed, opts.Nodes, opts.Schedule)
	if opts.Replay != nil {
		sched = *opts.Replay
	}
	if err := sched.Validate(); err != nil {
		return nil, err
	}
	waves := sched.Count(OpWave)

	// The reference's peers are kept so every wave can be applied to it
	// FIRST (the recall oracle must know a version before the cluster
	// can serve it). One long-lived client fabric + engine serves the
	// whole run: the incremental-update bookkeeping (ND maps, per-peer
	// watermarks) lives client-side, so the same engine must stage every
	// wave. Membership is pinned — restarts come back on the same
	// address and the pooled transport redials — so no churn handling is
	// needed.
	f, err := newFixture(tr, addrs, opts.ClusterOpts, waves*opts.WaveDocs, progress)
	if err != nil {
		return nil, err
	}
	progress, c, col := f.progress, f.c, f.col
	eng, cluPeers, err := f.build("chaos")
	if err != nil {
		return nil, err
	}

	// Wire requests. NoCache on every one: the recall oracle reasons
	// about which index VERSIONS a query could have observed, and a
	// result cached before a wave would answer from outside that
	// window; bypassing the cache also keeps every coordination on the
	// fetch path, where the failover the kills provoke actually lives.
	reqs := f.requests(true)

	// The recall oracle: version v of the reference is its state after
	// wave v (v=0 initial). refTop[v][qi] is fixed-length and written
	// BEFORE latest publishes v (atomic release/acquire), so workers
	// index it lock-free. A worker scores an answer against every
	// version in [stable-at-issue, latest-at-completion] and keeps the
	// best — while the cluster transitions between versions a query may
	// legitimately observe either side, or a per-key mix.
	refTop := make([][]docSet, waves+1)
	refResults := make([][][]rank.Result, waves+1)
	snapRef := func(v int, answers [][]rank.Result) {
		refResults[v] = answers
		refTop[v] = make([]docSet, len(answers))
		for i, res := range answers {
			set := make(docSet, len(res))
			for _, r := range res {
				set[r.Doc] = struct{}{}
			}
			refTop[v][i] = set
		}
	}
	snapRef(0, f.want)
	var stable, latest atomic.Int32

	rep := &ChaosReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: col.M(), FinalDocs: col.M() + waves*opts.WaveDocs,
		Soak:     opts.Soak,
		Schedule: sched,
		Kills:    sched.Count(OpKill), Waves: waves,
		Repairs: sched.Count(OpRepair), Resizes: sched.Count(OpResize),
		RecallFloor:   opts.RecallFloor,
		P99BoundNanos: int64(opts.P99Bound),
		RolloverFloor: opts.MinRollovers,
		MinRecall:     1,
	}
	if opts.Soak {
		rep.NodeRolloverFloor = opts.MinNodeRollovers
	}

	// Liveness flags: the driver clears a node's flag BEFORE killing it
	// and sets it only after restart returns, so a worker whose call
	// fails can tell an excused error (the schedule took its target
	// down) from a real one.
	alive := make([]atomic.Bool, opts.Nodes)
	for i := range alive {
		alive[i].Store(true)
	}
	var phase atomic.Int32
	stop := make(chan struct{})

	// Per-phase metric snapshots: index p is the state when phase p
	// began (0 = workload start), so phase p's delta is snaps[p+1] -
	// snaps[p] per node. A daemon that is down snapshots as zero and
	// Sub's clamp attributes its post-restart observations to the phase
	// they happened in.
	snapAll := func() []telemetry.Snapshot {
		out := make([]telemetry.Snapshot, opts.Nodes)
		for i, addr := range addrs {
			if !alive[i].Load() {
				continue
			}
			if s, err := cluster.FetchMetrics(tr, addr); err == nil {
				out[i] = s
			}
		}
		return out
	}
	snaps := make([][]telemetry.Snapshot, 0, len(sched.Actions)+2)
	snaps = append(snaps, snapAll())

	// The closed-loop workload: each worker cycles the query set over
	// rotating live coordinators until told to stop.
	tallies := make([]chaosWorker, opts.Workers)
	var wg sync.WaitGroup
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			st := &tallies[w]
			st.minRecall = 1
			st.phases = make([]int, len(sched.Actions)+1)
			for k := 0; ; k++ {
				select {
				case <-stop:
					return
				default:
				}
				qi := (w*13 + k) % len(reqs)
				tgt := -1
				for off := 0; off < opts.Nodes; off++ {
					if cand := (w + k + off) % opts.Nodes; alive[cand].Load() {
						tgt = cand
						break
					}
				}
				if tgt < 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				ph := int(phase.Load())
				lo := int(stable.Load())
				res, _, err := c.TrySearchVia(addrs[tgt], reqs[qi])
				hi := int(latest.Load())
				if err != nil {
					var ov *core.OverloadError
					switch {
					case errors.As(err, &ov):
						st.overloads++
						sleep := ov.RetryAfter
						if sleep <= 0 {
							sleep = time.Millisecond
						}
						if sleep > 50*time.Millisecond {
							sleep = 50 * time.Millisecond
						}
						time.Sleep(sleep)
					case !alive[tgt].Load():
						// The schedule killed (or is restarting) the
						// target mid-flight: excused, try elsewhere.
						st.excused++
					default:
						st.errs++
						if st.firstErr == nil {
							st.firstErr = fmt.Errorf("worker %d query %d via %s: %w", w, qi, addrs[tgt], err)
						}
						if st.errs >= chaosWorkerErrBudget {
							return
						}
						time.Sleep(5 * time.Millisecond)
					}
					continue
				}
				st.issued++
				st.failovers += res.Failovers
				if ph < len(st.phases) {
					st.phases[ph]++
				}
				best := 0.0
				for v := lo; v <= hi; v++ {
					want := refTop[v][qi]
					if len(want) == 0 {
						best = 1
						break
					}
					hit := 0
					for _, r := range res.Results {
						if _, ok := want[r.Doc]; ok {
							hit++
						}
					}
					if rc := float64(hit) / float64(len(want)); rc > best {
						best = rc
					}
				}
				st.windowed++
				st.recallSum += best
				if best < st.minRecall {
					st.minRecall = best
				}
				time.Sleep(time.Millisecond)
			}
		}(w)
	}

	// The driver: fire the schedule on its own clock while the workload
	// runs, snapshotting metrics at every phase boundary.
	progress("chaos: schedule seed %d — %d actions over %v (%d kills, %d waves, %d repairs, %d resizes)",
		sched.Seed, len(sched.Actions), sched.Horizon(), rep.Kills, rep.Waves, rep.Repairs, rep.Resizes)
	built := col.M()
	start := time.Now()
	runErr := func() error {
		for _, act := range sched.Actions {
			if d := act.At - time.Since(start); d > 0 {
				time.Sleep(d)
			}
			switch act.Op {
			case OpKill:
				alive[act.Node].Store(false)
				if err := kill(act.Node); err != nil {
					return fmt.Errorf("chaos %s: %w", act, err)
				}
			case OpRestart:
				if err := restart(act.Node); err != nil {
					return fmt.Errorf("chaos %s: %w", act, err)
				}
				alive[act.Node].Store(true)
			case OpWave:
				v := act.Wave + 1
				parts := splitRange(f.full, built, built+opts.WaveDocs, opts.Nodes)
				// Reference first: the oracle must know version v
				// before any cluster answer can reflect it.
				for i := range parts {
					if err := f.refPeers[i].AddDocuments(parts[i]); err != nil {
						return fmt.Errorf("chaos %s: reference stage: %w", act, err)
					}
				}
				if err := f.ref.BuildIndex(); err != nil {
					return fmt.Errorf("chaos %s: reference update: %w", act, err)
				}
				answers, err := f.answers()
				if err != nil {
					return fmt.Errorf("chaos %s: reference: %w", act, err)
				}
				snapRef(v, answers)
				latest.Store(int32(v))
				for i := range parts {
					if err := cluPeers[i].AddDocuments(parts[i]); err != nil {
						return fmt.Errorf("chaos %s: cluster stage: %w", act, err)
					}
				}
				if err := eng.BuildIndex(); err != nil {
					return fmt.Errorf("chaos %s: cluster update: %w", act, err)
				}
				stable.Store(int32(v))
				built += opts.WaveDocs
			case OpRepair:
				if _, err := c.Repairer(opts.Replicas).Repair(); err != nil {
					return fmt.Errorf("chaos %s: %w", act, err)
				}
			case OpResize:
				if err := c.ConfigureSearchVia(addrs[act.Node], act.Workers, act.Queue, -1); err != nil {
					return fmt.Errorf("chaos %s: %w", act, err)
				}
			}
			snaps = append(snaps, snapAll())
			phase.Store(phase.Load() + 1)
			progress("chaos: %s at %v", act, time.Since(start).Round(time.Millisecond))
		}
		// Drain tail: let the workload run a beat on the fully healed
		// cluster so the last phase has traffic too.
		time.Sleep(300 * time.Millisecond)
		return nil
	}()
	close(stop)
	wg.Wait()
	snaps = append(snaps, snapAll())
	if runErr != nil {
		return nil, runErr
	}

	// Merge the workers.
	rep.MeanRecall = 1
	var recallSum float64
	for i := range tallies {
		st := &tallies[i]
		rep.Issued += st.issued
		rep.WindowedQueries += st.windowed
		recallSum += st.recallSum
		rep.Overloads += st.overloads
		rep.Excused += st.excused
		rep.Failovers += st.failovers
		rep.Errors += st.errs
		if rep.FirstError == "" && st.firstErr != nil {
			rep.FirstError = st.firstErr.Error()
		}
		if st.windowed > 0 && st.minRecall < rep.MinRecall {
			rep.MinRecall = st.minRecall
		}
	}
	if rep.WindowedQueries > 0 {
		rep.MeanRecall = recallSum / float64(rep.WindowedQueries)
	}

	// Per-phase histogram deltas, merged across nodes; the overall p99
	// folds every phase (which keeps restarts' clamped deltas instead
	// of naively subtracting end-start across a counter reset).
	var overall telemetry.HistogramValue
	for p := 0; p+1 < len(snaps); p++ {
		var merged telemetry.HistogramValue
		for n := 0; n < opts.Nodes; n++ {
			cur, _ := snaps[p+1][n].Histogram(metricCoordination)
			prev, _ := snaps[p][n].Histogram(metricCoordination)
			merged = merged.Merge(cur.Sub(prev))
		}
		label := "drain"
		if p < len(sched.Actions) {
			label = sched.Actions[p].String()
		}
		queries := 0
		for i := range tallies {
			if p < len(tallies[i].phases) {
				queries += tallies[i].phases[p]
			}
		}
		rep.Phases = append(rep.Phases, ChaosPhase{
			Action: label, Queries: queries, P99Nanos: int64(merged.Quantile(0.99)),
		})
		overall = overall.Merge(merged)
	}
	rep.P99Nanos = int64(overall.Quantile(0.99))

	// Generation rollovers between workload start and drain, per node.
	first, last := snaps[0], snaps[len(snaps)-1]
	rep.MinNodeRollovers = -1
	for n := 0; n < opts.Nodes; n++ {
		g0, _ := first[n].Gauge("hdk_durable_generation")
		g1, _ := last[n].Gauge("hdk_durable_generation")
		d := int(g1+0.5) - int(g0+0.5)
		if d < 0 {
			d = 0
		}
		rep.GenerationRollovers += d
		if rep.MinNodeRollovers < 0 || d < rep.MinNodeRollovers {
			rep.MinNodeRollovers = d
		}
	}
	progress("chaos: workload %d issued (%d overloads, %d excused, %d errors), recall mean %.4f min %.2f, p99 %.3fms, %d rollovers",
		rep.Issued, rep.Overloads, rep.Excused, rep.Errors,
		rep.MeanRecall, rep.MinRecall, float64(rep.P99Nanos)/1e6, rep.GenerationRollovers)

	// Post-chaos sweep: with the cluster healed and quiescent, every
	// daemon must coordinate every query to the bit-identical final
	// reference answer, and replica coverage must be whole.
	if rep.FinalMismatches, err = f.sweep(refResults[waves]); err != nil {
		return nil, fmt.Errorf("final sweep: %w", err)
	}
	if rep.UnderReplicated, err = underReplicated(c.Audit(opts.Replicas)); err != nil {
		return nil, fmt.Errorf("final audit: %w", err)
	}
	progress("chaos: final sweep %d/%d parity, %d under-replicated",
		len(reqs)*len(addrs)-rep.FinalMismatches, len(reqs)*len(addrs), rep.UnderReplicated)

	if !opts.Soak {
		return rep, nil
	}

	// Soak epilogue: census the replicated store, roll every daemon
	// through SIGKILL + warm restart, and prove the restored cluster is
	// byte-identical — same fingerprints, same answers.
	before, err := clusterFingerprints(c)
	if err != nil {
		return nil, fmt.Errorf("soak: %w", err)
	}
	progress("soak: census %d stores, rolling restart of %d daemons", len(before), opts.Nodes)
	for i := range addrs {
		alive[i].Store(false)
		if err := kill(i); err != nil {
			return nil, fmt.Errorf("soak: kill %d: %w", i, err)
		}
		if err := restart(i); err != nil {
			return nil, fmt.Errorf("soak: restart %d: %w", i, err)
		}
		alive[i].Store(true)
	}
	after, err := clusterFingerprints(c)
	if err != nil {
		return nil, fmt.Errorf("soak: restore %w", err)
	}
	rep.RestoreFingerprintMismatches = diffFingerprints(before, after)
	if rep.RestoreParityMismatches, err = f.sweep(refResults[waves]); err != nil {
		return nil, fmt.Errorf("soak: restore sweep: %w", err)
	}
	progress("soak: restore %d fingerprint drifts, %d parity mismatches",
		rep.RestoreFingerprintMismatches, rep.RestoreParityMismatches)
	return rep, nil
}

// clusterFingerprints takes every daemon's census: which keys each store
// holds and each copy's freshness fingerprint (version + content
// checksum). Two censuses comparing equal mean the replicated store is
// byte-identical for the repair sweep's purposes.
func clusterFingerprints(c *cluster.Client) (map[string]map[string]replica.Fingerprint, error) {
	inv := core.RemoteInventory{Call: c.CallService}
	out := make(map[string]map[string]replica.Fingerprint)
	for _, m := range c.Members() {
		copies, err := inv.Census(m)
		if err != nil {
			return nil, fmt.Errorf("census of %s: %w", m.Addr(), err)
		}
		km := make(map[string]replica.Fingerprint, len(copies))
		for _, cp := range copies {
			km[cp.Key] = cp.FP
		}
		out[m.Addr()] = km
	}
	return out, nil
}

// diffFingerprints counts the (member, key) placements that differ
// between two censuses: keys missing from one side or fingerprints
// (version or checksum) that drifted.
func diffFingerprints(before, after map[string]map[string]replica.Fingerprint) int {
	diffs := 0
	for addr, bk := range before {
		ak := after[addr]
		for k, bfp := range bk {
			if afp, ok := ak[k]; !ok || afp != bfp {
				diffs++
			}
		}
		for k := range ak {
			if _, ok := bk[k]; !ok {
				diffs++
			}
		}
	}
	for addr, ak := range after {
		if _, ok := before[addr]; !ok {
			diffs += len(ak)
		}
	}
	return diffs
}

// Fprint renders the chaos scenario report.
func (r *ChaosReport) Fprint(w io.Writer) {
	mode := "Chaos"
	if r.Soak {
		mode = "Soak"
	}
	fmt.Fprintf(w, "%s — %d hdknode daemons, R=%d, %d->%d docs, schedule seed %d (%d kills, %d waves, %d repairs, %d resizes)\n",
		mode, r.Nodes, r.Replicas, r.Docs, r.FinalDocs, r.Schedule.Seed,
		r.Kills, r.Waves, r.Repairs, r.Resizes)
	fmt.Fprintf(w, "workload: %d issued, %d overloads, %d excused, %d errors | %d failover batches\n",
		r.Issued, r.Overloads, r.Excused, r.Errors, r.Failovers)
	if r.FirstError != "" {
		fmt.Fprintf(w, "first error: %s\n", r.FirstError)
	}
	fmt.Fprintf(w, "recall@K: mean %.4f, min %.2f over %d windowed queries (floor %.2f)\n",
		r.MeanRecall, r.MinRecall, r.WindowedQueries, r.RecallFloor)
	fmt.Fprintf(w, "latency: p99 %.3fms (bound %.0fms) | generations: %d rollovers, min %d/node\n",
		float64(r.P99Nanos)/1e6, float64(r.P99BoundNanos)/1e6,
		r.GenerationRollovers, r.MinNodeRollovers)
	for _, p := range r.Phases {
		fmt.Fprintf(w, "  phase %-22s %5d queries, p99 %.3fms\n", p.Action, p.Queries, float64(p.P99Nanos)/1e6)
	}
	fmt.Fprintf(w, "post-chaos: %d parity mismatches, %d under-replicated keys\n",
		r.FinalMismatches, r.UnderReplicated)
	if r.Soak {
		fmt.Fprintf(w, "restore: %d fingerprint drifts, %d parity mismatches after rolling restart\n",
			r.RestoreFingerprintMismatches, r.RestoreParityMismatches)
	}
}
