package experiments

import (
	"fmt"
	"slices"
	"strconv"
	"time"

	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// This file is the durability scenario of the streamed coordinator-side
// build, where a thin client ships every daemon its shard over the
// resumable hdk.ingest session and the daemons run the build; bench/
// times the same path end to end.

// IngestResumeReport is the durability scenario's measurement;
// Failures lists the gates it misses.
type IngestResumeReport struct {
	Nodes      int
	Replicas   int
	Docs       int
	Queries    int
	ChunkBytes int

	// Kill mid-upload and resume.
	VictimIdx       int // process index SIGKILLed mid-upload
	VictimChunks    int // chunks the victim's shard packs into (must exceed KillAfterChunks)
	KillAfterChunks int // chunks acked when the daemon was killed
	ResumeSkipped   int // chunks the restarted daemon already held (must == KillAfterChunks)
	ResumeResent    int // acked chunks shipped again on resume (must be 0)

	// The build: why its per-round histograms did not hold one
	// observation per daemon per round ("" when they did), and its
	// parity with the never-interrupted in-process engine.
	RoundSeriesFault string
	Mismatches       int

	// Warm restart of the member owning a probed key, after the build:
	// a freshly discovered client's parity and the daemon's own account.
	RestartIdx        int
	PostMismatches    int
	Warm              bool   // store restored from disk
	RestoredKeys      int    // resident keys after restore + catch-up (must be > 0)
	InsertRPCs        uint64 // re-index RPCs served since restart (must be 0)
	CatchUpStale      int    // keys the restored store was behind on (must be 0)
	CatchUpPulled     int    // copies pulled during warm-rejoin catch-up (must be 0)
	UnderAfterRestart int    // replica coverage deficit at R after rejoin (must be 0)
}

// Failures returns one message per gate the run missed.
func (r *IngestResumeReport) Failures() []string {
	var g gates
	g.check(r.ResumeSkipped == r.KillAfterChunks, "resumed session skipped %d chunks, want the %d the killed daemon had durably acked", r.ResumeSkipped, r.KillAfterChunks)
	g.check(r.ResumeResent == 0, "resume re-shipped %d acked chunks, want exactly 0", r.ResumeResent)
	g.check(r.VictimChunks > r.KillAfterChunks, "victim shard packs into %d chunks — the interruption at %d was not mid-upload", r.VictimChunks, r.KillAfterChunks)
	g.check(r.RoundSeriesFault == "", "%s", r.RoundSeriesFault)
	g.check(r.Mismatches == 0, "%d/%d post-build queries diverged — the resumed build is not bit-identical to the uninterrupted one", r.Mismatches, r.Queries)
	g.check(r.PostMismatches == 0, "%d/%d post-restart queries diverged — the restored index is not bit-identical", r.PostMismatches, r.Queries)
	g.check(r.Warm, "restarted daemon did not report a warm (disk-restored) start")
	g.check(r.RestoredKeys > 0, "restarted daemon holds no keys — nothing was restored")
	g.check(r.InsertRPCs == 0, "restarted daemon served %d insert RPCs — recovery re-indexed instead of restoring", r.InsertRPCs)
	// fsync=always means the SIGKILL lost nothing: catch-up must find
	// zero stale keys. (A full re-replication would pull every restored
	// key; pulling none is the sharpest form of "delta only".)
	g.check(r.CatchUpStale == 0 && r.CatchUpPulled == 0, "catch-up pulled %d copies (%d stale) despite fsync=always — restored state incomplete", r.CatchUpPulled, r.CatchUpStale)
	g.check(r.UnderAfterRestart == 0, "%d keys under-replicated after warm rejoin, want 0", r.UnderAfterRestart)
	return g
}

// Clean reports whether every gate held.
func (r *IngestResumeReport) Clean() bool { return len(r.Failures()) == 0 }

// TCPIngestResume runs the durability scenario against a live durable
// cluster (hdknode -data -fsync always): kill(i) SIGKILLs the process
// behind addrs[i], restart(i) brings it back on the same address from
// its data directory. Its schedule streams every shard, cutting the
// victim's upload after killAfterChunks acked chunks; SIGKILLs and
// restarts the victim; resumes the SAME session, which must skip exactly
// the acked prefix, and builds, bit-identically to the reference; then
// SIGKILLs and warm-restarts the member owning a probed key, which must
// restore its store with zero re-index RPCs and an empty catch-up.
func TCPIngestResume(tr transport.Transport, addrs []string, kill, restart func(i int) error,
	opts ClusterOpts, progress Progress) (*IngestResumeReport, error) {
	f, err := newFixture(fleet{tr, addrs, kill, restart}, "ingest-resume", opts, 0, 0, progress)
	if err != nil {
		return nil, err
	}
	rep := &IngestResumeReport{
		Nodes: opts.Nodes, Replicas: opts.Replicas,
		Docs: f.col.M(), Queries: len(f.queries), ChunkBytes: f.c.ChunkTarget(),
	}
	// Victim: the second ring member (any would do; a fixed choice keeps
	// the scenario deterministic). Owner: the member owning a probed key.
	const victimRing = 1
	rep.VictimIdx = slices.Index(addrs, f.c.Members()[victimRing].Addr())
	rep.RestartIdx = f.probedOwner()
	sched := sequence(opts.Nodes,
		FaultAction{Op: OpIngest, Node: rep.VictimIdx},
		FaultAction{Op: OpKill, Node: rep.VictimIdx},
		FaultAction{Op: OpRestart, Node: rep.VictimIdx},
		FaultAction{Op: OpIngest, Node: -1},
		FaultAction{Op: OpKill, Node: rep.RestartIdx},
		FaultAction{Op: OpRestart, Node: rep.RestartIdx})
	err = drive(sched, opts.Nodes, f.fire, time.Sleep, func(p int) (err error) {
		switch p {
		case 1:
			// fsync=always: the acked chunks are on disk, nothing else is.
			rep.KillAfterChunks = f.uploads[victimRing].ChunksSent
		case 4:
			// The resumed session: begin reported the durably held prefix
			// by digest, and the client shipped only the tail.
			st := f.uploads[victimRing]
			rep.VictimChunks, rep.ResumeSkipped = st.Chunks, st.ChunksSkipped
			rep.ResumeResent = max(rep.KillAfterChunks+st.ChunksSent-st.Chunks, 0)
			// Read before any restart resets a daemon's histograms.
			rep.RoundSeriesFault = roundSeriesFault(f.snapshot(), f.cfg.SMax)
			// Coordinators rotate so probes hit the restarted daemon too.
			rep.Mismatches, _, _, err = f.pass(false, f.want[0], f.rotating)
		case len(sched.Actions):
			// The warm restart, through a freshly discovered client: full
			// membership, bit-identical uncached coordinations (the restored
			// store serves its probes), full coverage, and the daemon's own
			// account of its restore.
			seed := addrs[(rep.RestartIdx+1)%len(addrs)]
			if f.c, err = cluster.Dial(cluster.Options{Transport: tr, Seed: seed}); err != nil {
				return err
			}
			if f.c.Size() != opts.Nodes {
				return fmt.Errorf("post-restart discovery via %s: %d members, want %d", seed, f.c.Size(), opts.Nodes)
			}
			if rep.PostMismatches, _, _, err = f.pass(true, f.want[0], f.rotating); err != nil {
				return err
			}
			if rep.UnderAfterRestart, err = underReplicated(f.c.Audit(opts.Replicas)); err != nil {
				return err
			}
			info, err := cluster.FetchInfo(tr, addrs[rep.RestartIdx])
			if err != nil {
				return err
			}
			snap := f.snapshot()[rep.RestartIdx]
			keys, _ := snap.Gauge("hdk_store_keys")
			rep.Warm, rep.RestoredKeys, rep.InsertRPCs = info.Warm, int(keys), snap.CounterSum("hdk_insert_rpcs_total")
			rep.CatchUpStale, rep.CatchUpPulled = info.CatchUpStale, info.CatchUpPulled
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	return rep, nil
}

// roundSeriesFault holds a daemon-coordinated build of smax rounds to
// exact accounting: each daemon ran each round once, so each per-round
// histogram (generation, insert pass, wait for the barrier to learn of
// the finished pass) must hold one observation per daemon per round. It
// names the first series that does not ("" when all do).
func roundSeriesFault(snaps []telemetry.Snapshot, smax int) string {
	for _, name := range []string{
		"hdk_build_generate_nanoseconds",
		"hdk_build_insert_nanoseconds",
		"hdk_build_barrier_wait_nanoseconds",
	} {
		for round := 1; round <= smax; round++ {
			var n uint64
			for _, snap := range snaps {
				hv, _ := snap.Histogram(name, telemetry.L("round", strconv.Itoa(round)))
				n += hv.Count
			}
			if n != uint64(len(snaps)) {
				return fmt.Sprintf("experiments: %s{round=%d} holds %d observations over %d daemons, want one each",
					name, round, n, len(snaps))
			}
		}
	}
	return ""
}
