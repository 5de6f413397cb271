package experiments

import (
	"fmt"
	"io"

	"repro/internal/baseline"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/replica"
)

// This file implements the availability scenario the replication
// subsystem exists for: build the index at several replication factors,
// crash a fraction of the network WITHOUT repair, and measure what
// retrieval loses; then run churn repair and verify coverage comes back.
// The paper's prototype inherited this resilience from P-Grid's
// structural replicas — here it is measured explicitly: at R=1 every
// crashed index node takes its key fraction with it, while at R>=2 the
// surviving replicas keep recall intact and a repair sweep restores
// R-way placement without re-running the build.

// AvailabilityRun is one replication factor's measurement.
type AvailabilityRun struct {
	Replicas          int     // configured replication factor
	StoredPostings    int     // resident postings after the build (all replicas)
	InsertedPostings  uint64  // postings shipped by the build (R× the R=1 cost)
	RecallAfterKill   float64 // mean recall@TopK vs the intact index, before repair
	FailoversPerQuery float64 // fetch batches re-sent to an alternate replica, per query
	UnderAfterKill    int     // under-replicated keys the crash left behind
	CopiesRepaired    int     // (key, replica) snapshots repair shipped
	RepairRPCs        int     // batched repair calls issued
	UnderAfterRepair  int     // under-replicated keys after repair (0 = full coverage)
	RecallAfterRepair float64 // mean recall@TopK vs the intact index, after repair
}

// AvailabilityReport is the whole scenario: one run per replication
// factor over identical networks, collections and query sets.
type AvailabilityReport struct {
	Scale    string
	Peers    int
	Killed   int
	Queries  int
	TopK     int
	KillFrac float64
	Runs     []AvailabilityRun
}

// availKillFrac is the share of nodes the availability experiment crashes.
const availKillFrac = 0.2

// Availability builds the HDK index over the scale's largest network at
// each given replication factor, records every query's intact top-K
// answer, crashes availKillFrac of the nodes (spread around the ring, so
// consecutive-replica wipeouts don't conflate the measurement), and
// re-measures recall — first without repair (pure failover), then after
// a RepairReplicas sweep.
func Availability(scale Scale, replicas []int, progress Progress) (*AvailabilityReport, error) {
	if err := scale.Validate(); err != nil {
		return nil, err
	}
	if len(replicas) == 0 {
		return nil, fmt.Errorf("experiments: no replication factors")
	}
	if progress == nil {
		progress = nopProgress
	}
	peers := scale.PeerSteps[len(scale.PeerSteps)-1]
	kills := int(float64(peers) * availKillFrac)
	if kills < 1 {
		return nil, fmt.Errorf("experiments: kill fraction %g removes no node from %d peers", availKillFrac, peers)
	}
	const topK = 10

	col, err := corpus.Generate(scale.GenParams())
	if err != nil {
		return nil, err
	}
	col = col.Slice(0, peers*scale.DocsPerPeer)
	cen := baseline.NewCentralized(col, rank.DefaultBM25())
	qp := corpus.DefaultQueryParams(scale.NumQueries)
	qp.MinHits = scale.MinHits
	queries, err := corpus.GenerateQueries(col, qp, scale.Window, cen.ConjunctiveHits)
	if err != nil {
		return nil, fmt.Errorf("query generation: %w", err)
	}
	progress("availability: %d peers, kill %d (%.0f%%), %d queries, R in %v",
		peers, kills, 100*availKillFrac, len(queries), replicas)

	rep := &AvailabilityReport{
		Scale: scale.Name, Peers: peers, Killed: kills,
		Queries: len(queries), TopK: topK, KillFrac: availKillFrac,
	}
	for _, r := range replicas {
		run, err := availabilityRun(scale, col, peers, kills, r, topK, queries, progress)
		if err != nil {
			return nil, fmt.Errorf("experiments: availability R=%d: %w", r, err)
		}
		rep.Runs = append(rep.Runs, *run)
	}
	return rep, nil
}

func availabilityRun(scale Scale, col *corpus.Collection, peers, kills, r, topK int,
	queries []corpus.Query, progress Progress) (*AvailabilityRun, error) {
	eng, _, err := buildScaledEngine(col, peers, hdkConfig(scale, col, scale.DFMaxes[0], r))
	if err != nil {
		return nil, err
	}
	if err := eng.BuildIndex(); err != nil {
		return nil, err
	}
	run := &AvailabilityRun{
		Replicas:         r,
		StoredPostings:   eng.Stats().StoredTotal,
		InsertedPostings: eng.Metrics().Snapshot().CounterSum("hdk_build_inserted_postings_total"),
	}

	// Intact ground truth. Queries originate at ring member 0, which the
	// victim choice below keeps alive.
	members := eng.Network().Members()
	origin := members[0]
	intact := make([][]rank.Result, len(queries))
	for i, q := range queries {
		res, err := eng.Search(q, origin, topK)
		if err != nil {
			return nil, err
		}
		intact[i] = res.Results
	}

	// Crash victims spread around the ring: index 0 (the query origin)
	// survives, and the even spacing avoids killing R consecutive
	// successors — the unrecoverable case a placement-blind kill list
	// would sometimes hit.
	step := peers / kills
	for k := 0; k < kills; k++ {
		if err := eng.FailNode(members[1+k*step]); err != nil {
			return nil, err
		}
	}

	recall, failovers, err := availabilityRecall(eng, queries, intact, origin, topK)
	if err != nil {
		return nil, err
	}
	run.RecallAfterKill = recall
	run.FailoversPerQuery = failovers
	if run.UnderAfterKill, err = underReplicated(eng.AuditReplicas()); err != nil {
		return nil, err
	}

	rstats, err := eng.RepairReplicas()
	if err != nil {
		return nil, err
	}
	run.CopiesRepaired = rstats.CopiesSent
	run.RepairRPCs = rstats.RepairRPCs
	if run.UnderAfterRepair, err = underReplicated(eng.AuditReplicas()); err != nil {
		return nil, err
	}
	if run.RecallAfterRepair, _, err = availabilityRecall(eng, queries, intact, origin, topK); err != nil {
		return nil, err
	}
	progress("availability R=%d: recall@%d %.4f after kill (%.2f failovers/query, %d under-replicated), %.4f after repair (%d copies shipped, %d left under)",
		r, topK, run.RecallAfterKill, run.FailoversPerQuery, run.UnderAfterKill,
		run.RecallAfterRepair, run.CopiesRepaired, run.UnderAfterRepair)
	return run, nil
}

// underReplicated is an audit's under-replicated key count.
func underReplicated(st replica.AuditStats, err error) (int, error) {
	return st.UnderReplicated, err
}

// availabilityRecall re-runs the query set and scores mean recall@topK
// against the intact answers.
func availabilityRecall(eng *core.Engine, queries []corpus.Query,
	intact [][]rank.Result, origin overlay.Member, topK int) (recall, failoversPerQuery float64, err error) {
	if len(queries) == 0 {
		return 0, 0, nil
	}
	failovers := 0
	for i, q := range queries {
		res, err := eng.Search(q, origin, topK)
		if err != nil {
			return 0, 0, err
		}
		failovers += res.Failovers
		recall += rank.Overlap(intact[i], res.Results, topK) / 100
	}
	n := float64(len(queries))
	return recall / n, float64(failovers) / n, nil
}

// Fprint renders the availability table.
func (r *AvailabilityReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "Availability under churn — %q scale, %d peers, %d killed (%.0f%%), %d queries, recall@%d vs intact index\n",
		r.Scale, r.Peers, r.Killed, 100*r.KillFrac, r.Queries, r.TopK)
	fmt.Fprintf(w, "%-4s %-14s %-14s %-16s %-12s %-16s %-14s\n",
		"R", "recall(kill)", "failovers/q", "under-replicated", "repaired", "under(after)", "recall(repair)")
	for _, run := range r.Runs {
		fmt.Fprintf(w, "%-4d %-14.4f %-14.2f %-16d %-12d %-16d %-14.4f\n",
			run.Replicas, run.RecallAfterKill, run.FailoversPerQuery,
			run.UnderAfterKill, run.CopiesRepaired, run.UnderAfterRepair, run.RecallAfterRepair)
	}
	fmt.Fprintln(w, "\nR=1 loses the crashed nodes' key fraction outright; R>=2 serves every")
	fmt.Fprintln(w, "query from surviving replicas, and repair restores full R-way coverage")
	fmt.Fprintln(w, "from resident copies — no re-indexing.")
}
