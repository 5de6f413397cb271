package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/replica"
	"repro/internal/transport"
)

// buildReplicatedEngine assembles an engine with the given replication
// factor over a reliable in-process transport.
func buildReplicatedEngine(t *testing.T, col *corpus.Collection, peers, r int, cfg Config) *Engine {
	t.Helper()
	cfg.ReplicationFactor = r
	eng := buildEngine(t, col, peers, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func TestReplicatedBuildCoverage(t *testing.T) {
	col := testCollection(t, 50)
	cfg := testConfig(col, 6)
	single := buildReplicatedEngine(t, col, 6, 1, cfg)
	triple := buildReplicatedEngine(t, col, 6, 3, cfg)

	// Every key must sit on exactly its 3 replica owners, nowhere else.
	audit := mustAudit(t, triple)
	if !audit.FullyReplicated() {
		t.Fatalf("replicated build under-replicated: %+v", audit)
	}
	s1, s3 := single.Stats(), triple.Stats()
	if s3.KeysTotal != 3*s1.KeysTotal {
		t.Fatalf("key placements: %d at R=3 vs %d at R=1, want exactly 3x", s3.KeysTotal, s1.KeysTotal)
	}
	if s3.StoredTotal != 3*s1.StoredTotal {
		t.Fatalf("stored postings: %d at R=3 vs %d at R=1, want exactly 3x", s3.StoredTotal, s1.StoredTotal)
	}
	t1, t3 := single.Traffic().Snapshot(), triple.Traffic().Snapshot()
	if t3.InsertedTotal != 3*t1.InsertedTotal {
		t.Fatalf("insert traffic: %d at R=3 vs %d at R=1, want exactly 3x", t3.InsertedTotal, t1.InsertedTotal)
	}

	// Replica stores must answer identically to the primary: the ranked
	// results are the same whichever engine serves the query.
	want := searchAll(t, single, col, 15)
	got := searchAll(t, triple, col, 15)
	assertSameResults(t, want, got, "replicated search")
}

func TestReplicationCappedAtOverlaySize(t *testing.T) {
	col := testCollection(t, 30)
	cfg := testConfig(col, 5)
	eng := buildReplicatedEngine(t, col, 3, 5, cfg) // R=5 > 3 nodes
	audit := mustAudit(t, eng)
	if !audit.FullyReplicated() {
		t.Fatalf("capped replication under-replicated: %+v", audit)
	}
	st := eng.Stats()
	if st.KeysTotal%3 != 0 {
		t.Fatalf("expected every key on all 3 nodes, got %d placements", st.KeysTotal)
	}
}

func TestSearchSurvivesNodeCrash(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	const peers, queries = 8, 25

	// R=2: crash one node, the ranked answers must be identical — Chord
	// promotes the old second replica to primary, which holds the data.
	eng := buildReplicatedEngine(t, col, peers, 2, cfg)
	before := searchAll(t, eng, col, queries)
	victim := eng.net.Members()[1]
	if err := eng.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	after := searchAll(t, eng, col, queries)
	assertSameResults(t, before, after, "crash at R=2")

	// R=1 control: the same crash measurably loses results.
	ctl := buildReplicatedEngine(t, col, peers, 1, cfg)
	ctlBefore := searchAll(t, ctl, col, queries)
	if err := ctl.FailNode(ctl.net.Members()[1]); err != nil {
		t.Fatal(err)
	}
	ctlAfter := searchAll(t, ctl, col, queries)
	lost := 0
	for i := range ctlBefore {
		if len(ctlAfter[i]) < len(ctlBefore[i]) {
			lost++
			continue
		}
		for j := range ctlBefore[i] {
			if ctlBefore[i][j].Doc != ctlAfter[i][j].Doc {
				lost++
				break
			}
		}
	}
	if lost == 0 {
		t.Fatal("R=1 crash lost nothing — the control proves nothing")
	}
}

// fetchBlocker wraps a transport and, once armed, fails every batched
// fetch RPC addressed to one victim node with a hard (non-transient)
// error, counting the blocked calls — the "reachable in the ring but not
// serving" failure mode that exercises search failover.
type fetchBlocker struct {
	transport.Transport
	victim string

	mu      sync.Mutex
	armed   bool
	blocked int
}

func (b *fetchBlocker) Call(addr string, req []byte) ([]byte, error) {
	b.mu.Lock()
	armed := b.armed
	b.mu.Unlock()
	if armed && addr == b.victim {
		if svc, _, err := overlay.DecodeEnvelope(req); err == nil && svc == SvcFetchBatch {
			b.mu.Lock()
			b.blocked++
			b.mu.Unlock()
			return nil, fmt.Errorf("injected fetch failure at %s", addr)
		}
	}
	return b.Transport.Call(addr, req)
}

func (b *fetchBlocker) arm() {
	b.mu.Lock()
	b.armed = true
	b.mu.Unlock()
}

func (b *fetchBlocker) count() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.blocked
}

func TestSearchFailoverGroundTruth(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	cfg.ReplicationFactor = 2
	const peers, queries = 6, 20

	blocker := &fetchBlocker{Transport: transport.NewInProc()}
	net := overlay.NewNetwork(blocker)
	nodes := make([]*overlay.Node, peers)
	for i := range nodes {
		n, err := net.AddNode(fmt.Sprintf("peer-%d", i))
		if err != nil {
			t.Fatal(err)
		}
		nodes[i] = n
	}
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range col.SplitRoundRobin(peers) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	before := searchAll(t, eng, col, queries)

	// Block fetches at one node and re-run: every answer must be served
	// by the second replica, bit-identically. The victim is the origin's
	// ring successor: read placement (ReadPlan) puts the keys the origin
	// holds on the origin itself, so of the successor's two chains only
	// the one it leads, {successor, successor+1}, is ever read remotely —
	// when the plan picks it, every key of the blocked batch has the same
	// next replica and the batch is re-sent as exactly one batch. (A
	// member read for two different chains would split a blocked batch
	// in two, and blocked batches would no longer equal re-sends.)
	from := eng.net.Members()[0]
	blocker.victim = eng.net.Members()[1].Addr()
	blocker.arm()
	failovers := 0
	for i := 0; i < queries; i++ {
		q := corpus.Query{Terms: col.Docs[i].Terms[:2]}
		res, err := eng.Search(q, from, 20)
		if err != nil {
			t.Fatalf("query %d failed despite a live replica: %v", i, err)
		}
		failovers += res.Failovers
		for j := range before[i] {
			if before[i][j].Doc != res.Results[j].Doc {
				t.Fatalf("query %d rank %d: doc %d after failover, want %d",
					i, j, res.Results[j].Doc, before[i][j].Doc)
			}
		}
		if len(res.Results) != len(before[i]) {
			t.Fatalf("query %d: %d results after failover, want %d", i, len(res.Results), len(before[i]))
		}
	}
	// Ground truth: every blocked batch triggered exactly one re-send to
	// the next replica, and nothing else did.
	if failovers == 0 {
		t.Fatal("victim never chosen as a reader — test proves nothing")
	}
	if got := blocker.count(); failovers != got {
		t.Fatalf("Failovers counted %d, transport blocked %d fetch batches", failovers, got)
	}
	if total := eng.Traffic().Snapshot().SearchFailovers; total != uint64(failovers) {
		t.Fatalf("Traffic.SearchFailovers %d, per-query sum %d", total, failovers)
	}
}

// gatedFlaky keeps the transport reliable until armed, then injects the
// wrapped Flaky's drop rate — flakiness confined to the query phase (the
// round-synchronous build intentionally has no write-path failover).
type gatedFlaky struct {
	*transport.Flaky
	inner transport.Transport

	mu    sync.Mutex
	armed bool
}

func (g *gatedFlaky) Call(addr string, req []byte) ([]byte, error) {
	g.mu.Lock()
	armed := g.armed
	g.mu.Unlock()
	if armed {
		return g.Flaky.Call(addr, req)
	}
	return g.inner.Call(addr, req)
}

func (g *gatedFlaky) arm() {
	g.mu.Lock()
	g.armed = true
	g.mu.Unlock()
}

func TestSearchFailoverUnderFlakyTransport(t *testing.T) {
	col := testCollection(t, 50)
	cfg := testConfig(col, 6)
	cfg.ReplicationFactor = 2

	reliable := buildReplicatedEngine(t, col, 5, 2, testConfig(col, 6))
	want := searchAll(t, reliable, col, 15)

	// 60% drop rate once armed: routing and fetches fail sporadically
	// even after transport retries; ground-truth route fallback and
	// replica failover must keep answers identical.
	inner := transport.NewInProc()
	flaky, err := transport.NewFlaky(inner, 0.60, 7)
	if err != nil {
		t.Fatal(err)
	}
	gated := &gatedFlaky{Flaky: flaky, inner: inner}
	net := overlay.NewNetwork(gated)
	nodes := make([]*overlay.Node, 5)
	for i := range nodes {
		if nodes[i], err = net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	for i, part := range col.SplitRoundRobin(5) {
		if _, err := eng.AddPeer(nodes[i], part); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	gated.arm()
	got := searchAll(t, eng, col, 15)
	assertSameResults(t, want, got, "flaky transport at R=2")
	if flaky.Dropped() == 0 {
		t.Fatal("failure injection inactive — test proves nothing")
	}
}

// TestRepairRestoresCoverage crashes non-adjacent members, so every key
// keeps a live replica, and requires one repair sweep to restore full
// R-way coverage with zero deficit. The R = 2 case crashes a quarter of
// the members.
func TestRepairRestoresCoverage(t *testing.T) {
	for _, tc := range []struct {
		name     string
		peers, r int
		crash    []int
	}{
		{"R3", 9, 3, []int{1, 4}},
		{"R2", 8, 2, []int{1, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) { repairRestoresCoverage(t, tc.peers, tc.r, tc.crash) })
	}
}

func repairRestoresCoverage(t *testing.T, peers, r int, crash []int) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildReplicatedEngine(t, col, peers, r, cfg)
	before := searchAll(t, eng, col, 15)

	// Crash non-adjacent nodes: every key keeps at least one live
	// replica, but its current r-member replica set has holes.
	members := eng.net.Members()
	for _, i := range crash {
		if err := eng.FailNode(members[i]); err != nil {
			t.Fatal(err)
		}
	}
	audit := mustAudit(t, eng)
	if audit.UnderReplicated == 0 {
		t.Fatal("crashes left coverage intact — test proves nothing")
	}

	insertedBefore := eng.Traffic().Snapshot().InsertedTotal
	stats, err := eng.RepairReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if stats.CopiesSent == 0 || stats.RepairRPCs == 0 {
		t.Fatalf("repair shipped nothing: %+v", stats)
	}
	if stats.UnderReplicated != audit.UnderReplicated {
		t.Fatalf("repair saw %d under-replicated keys, audit saw %d",
			stats.UnderReplicated, audit.UnderReplicated)
	}

	// Store-sweep assertion: coverage is fully restored...
	after := mustAudit(t, eng)
	if !after.FullyReplicated() {
		t.Fatalf("repair left %d keys under-replicated (%d copies missing)",
			after.UnderReplicated, after.MissingCopies)
	}
	// ...without a rebuild: repair ships snapshots over replica.repair,
	// never through the insert path.
	if got := eng.Traffic().Snapshot().InsertedTotal; got != insertedBefore {
		t.Fatalf("repair re-ran the build: inserted postings %d -> %d", insertedBefore, got)
	}
	// And the index still answers identically.
	assertSameResults(t, before, searchAll(t, eng, col, 15), "post-repair")

	// A second repair is a no-op.
	again, err := eng.RepairReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if again.CopiesSent != 0 {
		t.Fatalf("idempotent repair still shipped %d copies", again.CopiesSent)
	}
}

// TestRepairHealsDivergedReplica covers the churn+update divergence: a
// node promoted into a key's replica set by a crash, then fed only
// post-crash postings by an incremental update, holds a PARTIAL copy of
// the key. Mere key presence would hide it from the sweep; the df
// fingerprint must flag it and repair must overwrite it with the full
// copy.
func TestRepairHealsDivergedReplica(t *testing.T) {
	col := testCollection(t, 60)
	grown := col.Slice(0, 40)
	cfg := testConfig(col, 6)
	cfg.ReplicationFactor = 2
	eng := buildEngine(t, grown, 6, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Crash a node, then grow the collection WITHOUT repairing first:
	// the update fans new postings to post-crash replica sets, creating
	// fresh partial entries on newly-responsible members.
	if err := eng.FailNode(eng.net.Members()[2]); err != nil {
		t.Fatal(err)
	}
	if err := eng.peers[0].AddDocuments(col.Slice(40, 60)); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	rstats, err := eng.RepairReplicas()
	if err != nil {
		t.Fatal(err)
	}
	if rstats.CopiesSent == 0 {
		t.Fatal("churn+update produced nothing to heal — test proves nothing")
	}
	audit := mustAudit(t, eng)
	if !audit.FullyReplicated() {
		t.Fatalf("repair left holes after churn+update: %+v", audit)
	}
	// Every key's copies must agree on the full fingerprint (df AND
	// content checksum) across its whole replica set — a diverged partial
	// replica would serve wrong scores on failover.
	for _, m := range eng.net.Members() {
		store := eng.stores[m.ID()].store
		for _, key := range store.keyList() {
			fp, _ := store.entryFingerprint(key)
			for _, owner := range eng.net.OwnersOf(key, eng.replicas()) {
				ofp, ok := eng.stores[owner.ID()].store.entryFingerprint(key)
				if !ok || ofp != fp {
					t.Fatalf("key %q: replica fingerprint %+v (present %v) != %+v — diverged copy survived repair",
						key, ofp, ok, fp)
				}
			}
		}
	}
}

func TestUpdateIndexMaintainsReplication(t *testing.T) {
	col := testCollection(t, 60)
	grown := col.Slice(0, 40)
	cfg := testConfig(col, 6)
	cfg.ReplicationFactor = 2
	eng := buildEngine(t, grown, 4, cfg)
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	// Stage the remaining documents on peer 0 and update incrementally.
	tail := col.Slice(40, 60)
	if err := eng.peers[0].AddDocuments(tail); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	audit := mustAudit(t, eng)
	if !audit.FullyReplicated() {
		t.Fatalf("incremental update broke replication: %+v", audit)
	}
}

func TestGracefulLeavePreservesReplication(t *testing.T) {
	col := testCollection(t, 50)
	cfg := testConfig(col, 6)
	eng := buildReplicatedEngine(t, col, 6, 2, cfg)
	before := searchAll(t, eng, col, 12)

	if err := eng.RemoveNode(eng.net.Members()[2]); err != nil {
		t.Fatal(err)
	}
	audit := mustAudit(t, eng)
	if !audit.FullyReplicated() {
		t.Fatalf("graceful leave broke replication: %+v", audit)
	}
	// A leave only promotes members into replica sets, never demotes one,
	// and the handoff copies onto owners only: no entry may sit outside
	// its replica set.
	for id, srv := range eng.stores {
		for _, key := range srv.store.keyList() {
			if !inReplicaSet(id, eng.net.OwnersOf(key, eng.replicas())) {
				t.Fatalf("key %q resident outside its replica set after a graceful leave", key)
			}
		}
	}
	assertSameResults(t, before, searchAll(t, eng, col, 12), "graceful leave at R=2")
}

// inReplicaSet reports whether the node is among the given owners.
func inReplicaSet(id overlay.ID, owners []overlay.Member) bool {
	for _, owner := range owners {
		if owner.ID() == id {
			return true
		}
	}
	return false
}

// mustAudit runs the engine's replica audit, failing the test on a sweep
// error.
func mustAudit(t *testing.T, eng *Engine) replica.AuditStats {
	t.Helper()
	st, err := eng.AuditReplicas()
	if err != nil {
		t.Fatal(err)
	}
	return st
}
