package experiments

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file is the chaos scenario: a closed-loop query load runs
// CONTINUOUSLY against rotating coordinators while a seeded schedule
// fires compound faults — SIGKILL + warm restart, update waves,
// admission resizes, repair sweeps — with a tiny -compact-bytes rolling
// generations underneath. Soak mode is the same run time-compressed for
// durability: more waves cycle every daemon through several generations,
// then a second schedule rolls every daemon through SIGKILL + warm
// restart, proved byte-identical by store census and parity.

// ChaosOpts parameterizes the chaos scenario.
type ChaosOpts struct {
	ClusterOpts
	WaveDocs int // documents staged per update wave
	Workers  int // concurrent closed-loop query workers

	// ScheduleSeed + Schedule generate the fault schedule unless Replay
	// is set, which is fired verbatim (the CI-artifact reproduction path).
	ScheduleSeed uint64
	Schedule     ScheduleOpts
	Replay       *FaultSchedule

	// Gates: mean windowed recall@TopK, merged coordination p99, and
	// cluster-wide generation rollovers (proof compactions interleaved).
	RecallFloor  float64
	P99Bound     time.Duration
	MinRollovers int

	// Soak adds MinNodeRollovers per daemon and the rolling restart.
	Soak             bool
	MinNodeRollovers int
}

// DefaultChaosOpts is the CI chaos gate's configuration: a 5-process
// cluster at R=3 under a 4-worker closed loop, with the default budget.
func DefaultChaosOpts() ChaosOpts {
	return ChaosOpts{
		ClusterOpts: DefaultClusterOpts(), WaveDocs: 25, Workers: 4,
		ScheduleSeed: 1,
		RecallFloor:  0.99, P99Bound: 2 * time.Second, MinRollovers: 1,
	}
}

// DefaultSoakOpts is the time-compressed soak configuration: six update
// waves against a small daemon -compact-bytes, so every daemon crosses
// at least three snapshot generations before the rolling restart.
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

// ChaosPhase is one inter-action interval of the run: the action that
// closed it ("drain" for the tail), the queries the workload completed
// in it and the merged coordination p99 of exactly that interval.
type ChaosPhase struct {
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

	// Workload accounting: completed coordinations, admission sheds
	// (never failures), errors excused by a down target, everything else
	// (the zero-gate), and fetch batches re-sent to alternate replicas.
	Issued     int    `json:"issued"`
	Overloads  uint64 `json:"overloads"`
	Excused    uint64 `json:"excused"`
	Errors     int    `json:"errors"`
	FirstError string `json:"first_error,omitempty"`
	Failovers  int    `json:"failovers"`

	// Version-windowed recall@TopK vs the live-updated reference: a query
	// overlapping a wave legitimately reflects either side of it, or a
	// mix, so each answer scores its best over the plausible versions.
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

	// Soak-only: census drift and parity mismatches across the rolling
	// restart of every daemon.
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

// chaosWorkerErrBudget stops a worker that keeps failing for real: the
// gate needs one error, not a flood against a wedged cluster.
const chaosWorkerErrBudget = 25

// Chaos runs the chaos scenario against an already-running durable
// cluster: addrs are the daemon addresses (start order), kill(i)
// SIGKILLs the process behind addrs[i], and restart(i) brings it back ON
// THE SAME ADDRESS from its data directory, returning once membership
// has converged. The daemons should run with a small -compact-bytes so
// the waves force the generation rollovers the scenario gates on.
func Chaos(tr transport.Transport, addrs []string, kill, restart func(i int) error,
	opts ChaosOpts, progress Progress) (*ChaosReport, error) {
	sched := GenerateSchedule(opts.ScheduleSeed, opts.Nodes, opts.Schedule)
	if opts.Replay != nil {
		sched = *opts.Replay
	}
	// Refused before the fixture dials anything.
	if err := sched.validateFor(opts.Nodes); err != nil {
		return nil, err
	}
	waves := sched.Count(OpWave)
	// One client fabric + engine serves the whole run: the incremental
	// bookkeeping (ND maps, per-peer watermarks) lives client-side, so the
	// same engine stages every wave. Restarts come back on the same
	// address and the pooled transport redials.
	f, err := newFixture(fleet{tr, addrs, kill, restart}, "chaos", opts.ClusterOpts, waves, opts.WaveDocs, progress)
	if err != nil {
		return nil, err
	}
	if err := f.build(); err != nil {
		return nil, err
	}
	rep := &ChaosReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: f.col.M(), FinalDocs: f.col.M() + waves*opts.WaveDocs,
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

	// The workload: each worker cycles the query set over rotating live
	// coordinators until stop closes. Every request is NoCache: a cached
	// result would answer from outside the oracle's version window, and
	// the fetch path is where the kills' failover lives. An answer scores
	// its best recall over the versions in [stable at issue, latest at
	// completion]. A failed call is a shed (backed off), excused (its
	// target is down: fire marks it so before the kill), or an error.
	reqs := f.requests(true)
	var (
		mu        sync.Mutex // guards rep's workload tallies, recallSum and perPhase
		recallSum float64
		perPhase  = make([]int, len(sched.Actions)+1)
		phase     atomic.Int32
		wg        sync.WaitGroup
	)
	stop := make(chan struct{})
	for w := 0; w < opts.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs := 0
			for k := 0; errs < chaosWorkerErrBudget; k++ {
				select {
				case <-stop:
					return
				default:
				}
				qi, tgt := (w*13+k)%len(reqs), -1
				for off := 0; off < opts.Nodes && tgt < 0; off++ {
					if cand := (w + k + off) % opts.Nodes; !f.down[cand].Load() {
						tgt = cand
					}
				}
				if tgt < 0 {
					time.Sleep(time.Millisecond)
					continue
				}
				ph, lo := phase.Load(), f.stable.Load()
				res, _, err := f.c.TrySearchVia(addrs[tgt], reqs[qi])
				hi := f.latest.Load()
				pause := time.Millisecond
				var ov *core.OverloadError
				mu.Lock()
				switch {
				case err == nil:
					best := 0.0
					for v := lo; v <= hi; v++ {
						best = max(best, recall(f.want[v][qi], res.Results))
					}
					rep.Issued++
					rep.WindowedQueries++
					rep.Failovers += res.Failovers
					rep.MinRecall = min(rep.MinRecall, best)
					recallSum += best
					perPhase[ph]++
				case errors.As(err, &ov):
					rep.Overloads++
					pause = min(max(ov.RetryAfter, time.Millisecond), 50*time.Millisecond)
				case f.down[tgt].Load():
					rep.Excused++
					pause = 0
				default:
					rep.Errors++
					errs++
					if rep.FirstError == "" {
						rep.FirstError = fmt.Sprintf("worker %d query %d via %s: %v", w, qi, addrs[tgt], err)
					}
					pause = 5 * time.Millisecond
				}
				mu.Unlock()
				time.Sleep(pause)
			}
		}()
	}

	// Fire the schedule while the workload runs. snaps[p] is every
	// daemon's registry when phase p began, so phase p's delta is
	// snaps[p+1] - snaps[p]; a daemon that is down reads as zero, and
	// Sub's clamp attributes its post-restart observations to the phase
	// they happened in.
	var snaps [][]telemetry.Snapshot
	f.progress("chaos: schedule seed %d — %d actions over %v (%d kills, %d waves, %d repairs, %d resizes)",
		sched.Seed, len(sched.Actions), sched.Horizon(), rep.Kills, rep.Waves, rep.Repairs, rep.Resizes)
	err = drive(sched, opts.Nodes, f.fire, time.Sleep, func(p int) error {
		snaps = append(snaps, f.snapshot())
		phase.Store(int32(p))
		if p == len(sched.Actions) {
			time.Sleep(300 * time.Millisecond) // drain: the healed cluster's phase gets traffic too
		}
		return nil
	})
	close(stop)
	wg.Wait()
	snaps = append(snaps, f.snapshot())
	if err != nil {
		return nil, err
	}
	rep.MeanRecall = 1
	if rep.WindowedQueries > 0 {
		rep.MeanRecall = recallSum / float64(rep.WindowedQueries)
	}

	// The overall p99 folds every phase's merged delta, which keeps the
	// restarts' clamped deltas instead of subtracting end-start across a
	// counter reset.
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
		rep.Phases = append(rep.Phases, ChaosPhase{Action: label, Queries: perPhase[p], P99Nanos: int64(merged.Quantile(0.99))})
		overall = overall.Merge(merged)
	}
	rep.P99Nanos = int64(overall.Quantile(0.99))
	rep.MinNodeRollovers = -1
	for n := 0; n < opts.Nodes; n++ {
		g0, _ := snaps[0][n].Gauge("hdk_durable_generation")
		g1, _ := snaps[len(snaps)-1][n].Gauge("hdk_durable_generation")
		d := max(int(g1+0.5)-int(g0+0.5), 0)
		rep.GenerationRollovers += d
		if rep.MinNodeRollovers < 0 || d < rep.MinNodeRollovers {
			rep.MinNodeRollovers = d
		}
	}

	// Healed and quiescent: every daemon must coordinate every query to
	// the bit-identical final reference answer, with whole coverage.
	final := f.want[waves]
	if rep.FinalMismatches, err = f.sweep(final); err != nil {
		return nil, err
	}
	if rep.UnderReplicated, err = underReplicated(f.c.Audit(opts.Replicas)); err != nil || !opts.Soak {
		return rep, err
	}

	// Soak: census the stores, roll every daemon through SIGKILL + warm
	// restart, and hold the restored cluster to the same census and the
	// same answers.
	var roll []FaultAction
	for i := range addrs {
		roll = append(roll, FaultAction{Op: OpKill, Node: i}, FaultAction{Op: OpRestart, Node: i})
	}
	var before census
	err = drive(sequence(opts.Nodes, roll...), opts.Nodes, f.fire, time.Sleep, func(p int) (err error) {
		switch p {
		case 0:
			before, err = takeCensus(f.c)
		case len(roll):
			var after census
			if after, err = takeCensus(f.c); err == nil {
				rep.RestoreFingerprintMismatches = before.diff(after)
				rep.RestoreParityMismatches, err = f.sweep(final)
			}
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// recall is the share of want's documents that got holds (1 for an
// empty want).
func recall(want, got []rank.Result) float64 {
	if len(want) == 0 {
		return 1
	}
	hit := 0
	for _, g := range got {
		for _, w := range want {
			if g.Doc == w.Doc {
				hit++
				break
			}
		}
	}
	return float64(hit) / float64(len(want))
}

// census is every daemon's store census: each resident copy's freshness
// fingerprint (version + content checksum) by (daemon address, key).
// Two equal censuses mean a byte-identical replicated store for the
// repair sweep's purposes.
type census map[[2]string]replica.Fingerprint

// takeCensus takes the census of every member of c's view.
func takeCensus(c *cluster.Client) (census, error) {
	inv := core.RemoteInventory{Call: c.CallService}
	out := make(census)
	for _, m := range c.Members() {
		copies, err := inv.Census(m)
		if err != nil {
			return nil, fmt.Errorf("census of %s: %w", m.Addr(), err)
		}
		for _, cp := range copies {
			out[[2]string{m.Addr(), cp.Key}] = cp.FP
		}
	}
	return out, nil
}

// diff counts the (daemon, key) placements that differ between two
// censuses: copies missing from one side, or fingerprints that drifted.
func (c census) diff(after census) int {
	diffs := 0
	for k, fp := range c {
		if afp, ok := after[k]; !ok || afp != fp {
			diffs++
		}
	}
	for k := range after {
		if _, ok := c[k]; !ok {
			diffs++
		}
	}
	return diffs
}
