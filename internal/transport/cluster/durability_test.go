package cluster

import (
	"fmt"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/transport"
)

// newDurableServer binds one daemon server with a durable data dir.
func newDurableServer(t *testing.T, tr transport.Transport, listen, dir string, replicas int) *Server {
	t.Helper()
	d, err := durable.Open(dir, durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s, err := NewServer(tr, listen, replicas)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.EnableDurability(d); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestClusterWarmRestartWithMissedWrites is the warm-rejoin lifecycle
// over real sockets in one test process: a durable daemon is crashed
// (transport yanked, data dir left behind), the surviving cluster keeps
// WRITING (an incremental index update the dead member never sees), and
// the daemon then restarts from its data dir on the same address. The
// restored store plus the delta catch-up must make the full cluster
// byte-identical to the survivors' post-update state — with zero insert
// RPCs against the restarted daemon.
func TestClusterWarmRestartWithMissedWrites(t *testing.T) {
	const peers, replicas = 4, 3
	col := testCollection(t, 120)
	built := col.Slice(0, 100)
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: built.M(), AvgDocLen: built.AvgDocLen()})
	cfg.DFMax = 8
	cfg.Window = 8
	cfg.ReplicationFactor = replicas

	dataRoot := t.TempDir()
	servers := make([]*Server, peers)
	trs := make([]*transport.TCP, peers)
	byAddr := make(map[string]int)
	for i := range servers {
		trs[i] = transport.NewTCP()
		defer trs[i].Close()
		servers[i] = newDurableServer(t, trs[i], "127.0.0.1:0",
			filepath.Join(dataRoot, fmt.Sprintf("node%d", i)), replicas)
		if i > 0 {
			if err := servers[i].Join(servers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		byAddr[servers[i].Addr()] = i
	}

	ctr := transport.NewTCP()
	defer ctr.Close()
	c, err := Dial(Options{Transport: ctr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(c, cfg, built.Vocab, built.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	members := c.Members()
	peerByAddr := make(map[string]*core.Peer)
	for i, part := range built.SplitRoundRobin(len(members)) {
		p, err := eng.AddPeer(members[i], part)
		if err != nil {
			t.Fatal(err)
		}
		peerByAddr[members[i].Addr()] = p
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}

	queries := testQueries(built, 15)
	origin := c.Members()[0]

	// Crash the daemon that owns the first query's first term: its keys
	// are guaranteed probes, so the post-restart sweep exercises the
	// restored store.
	victim, ok := c.OwnerOf(built.Vocab[queries[0].Terms[0]])
	if !ok {
		t.Fatal("empty membership")
	}
	vi := byAddr[victim.Addr()]
	trs[vi].Close()

	// The operator removes the dead member; the cluster keeps living:
	// 20 more documents arrive at a surviving peer and are indexed
	// incrementally. The victim's data dir never sees these writes.
	if err := eng.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	var survivorPeer *core.Peer
	for addr, p := range peerByAddr {
		if addr != victim.Addr() {
			survivorPeer = p
			break
		}
	}
	if err := survivorPeer.AddDocuments(col.Slice(100, 120)); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatalf("incremental update with a crashed member removed: %v", err)
	}
	postUpdate := make([][]rank.Result, len(queries))
	for i, q := range queries {
		res, err := eng.Search(q, origin, 10)
		if err != nil {
			t.Fatal(err)
		}
		postUpdate[i] = res.Results
	}

	// Warm restart on the ORIGINAL address from the data dir.
	tr2 := transport.NewTCP()
	defer tr2.Close()
	restarted := newDurableServer(t, tr2, victim.Addr(),
		filepath.Join(dataRoot, fmt.Sprintf("node%d", vi)), replicas)
	if !restarted.Warm() {
		t.Fatal("restarted daemon did not restore state from its data dir")
	}
	if !restarted.Store().Populated() {
		t.Fatal("restored store is empty")
	}
	seed := servers[(vi+1)%peers].Addr()
	if err := restarted.Join(seed); err != nil {
		t.Fatal(err)
	}
	st, err := restarted.CatchUp()
	if err != nil {
		t.Fatalf("warm-rejoin catch-up: %v", err)
	}
	if st.UnderReplicated == 0 || st.CopiesSent == 0 {
		t.Fatalf("catch-up pulled nothing despite missed writes: %+v", st)
	}
	if total := restarted.Store().KeyCount(); st.CopiesSent >= total {
		t.Fatalf("catch-up pulled %d of %d keys — that is a full re-replication, not a delta", st.CopiesSent, total)
	}
	if got, _ := restarted.Metrics().Snapshot().Counter(metricInsertRPCs); got != 0 {
		t.Fatalf("restarted daemon served %d insert RPCs — the index was re-built, not restored", got)
	}

	// A fresh client discovering the full 4-member cluster must see the
	// survivors' post-update results bit for bit — whether a probe lands
	// on a survivor or on the restarted store — and full replica
	// coverage at R.
	c2, err := Dial(Options{Transport: ctr, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if c2.Size() != peers {
		t.Fatalf("fresh client sees %d members, want %d", c2.Size(), peers)
	}
	eng2, err := core.NewEngine(c2, cfg, built.Vocab, built.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range queries {
		res, err := eng2.Search(q, c2.Members()[0], 10)
		if err != nil {
			t.Fatalf("query %d after restart: %v", i, err)
		}
		if !reflect.DeepEqual(postUpdate[i], res.Results) {
			t.Fatalf("query %d: results diverged after warm restart\nwant: %v\ngot:  %v",
				i, postUpdate[i], res.Results)
		}
	}
	if under := mustAudit(t, c2, replicas).UnderReplicated; under != 0 {
		t.Fatalf("%d keys under-replicated after warm rejoin + catch-up", under)
	}

	// The daemon self-describes its warm state for operators.
	info, err := FetchInfo(ctr, victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if !info.Warm || info.CatchUpPulled != st.CopiesSent {
		t.Fatalf("info after warm restart = %+v", info)
	}
	snap, err := FetchMetrics(ctr, victim.Addr())
	if err != nil {
		t.Fatal(err)
	}
	inserts, _ := snap.Counter(metricInsertRPCs)
	if keys, _ := snap.Gauge(metricStoreKeys); inserts != 0 || keys == 0 {
		t.Fatalf("metrics after warm restart: %d insert RPCs, %v keys", inserts, keys)
	}
}

// TestClusterPersistShutdownSealsSnapshot: a graceful shutdown compacts
// the op log into a snapshot, and a fresh server restores the identical
// store from it with zero ops to replay.
func TestClusterPersistShutdownSealsSnapshot(t *testing.T) {
	const peers = 2
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	dir0 := t.TempDir()

	tr := transport.NewInProc()
	defer tr.Close()
	servers := make([]*Server, peers)
	for i := range servers {
		var err error
		servers[i], err = NewServer(tr, fmt.Sprintf("node-%d", i), 1)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := servers[i].Join(servers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	d0, err := durable.Open(dir0, durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := servers[0].EnableDurability(d0); err != nil {
		t.Fatal(err)
	}

	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildClusterEngine(t, c, col, cfg)
	_ = eng
	wantKeys := servers[0].Store().KeyCount()
	if wantKeys == 0 {
		t.Fatal("node-0 store empty after build")
	}

	if err := servers[0].PersistShutdown(); err != nil {
		t.Fatal(err)
	}

	// The sealed dir: one snapshot generation, an empty op log, the
	// configuration record leading the snapshot.
	re, err := durable.Open(dir0, durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if len(re.Ops()) != 0 {
		t.Fatalf("%d ops left after graceful shutdown, want 0 (sealed into snapshot)", len(re.Ops()))
	}
	snap := re.Snapshot()
	// Configuration arrives as a degenerate ingest session now, so the
	// self-contained snapshot leads with that session's begin record.
	if len(snap) == 0 || snap[0].Kind != durIngestBegin {
		t.Fatalf("snapshot does not lead with the ingest-begin (configuration) record: %d records", len(snap))
	}

	// A fresh server process restores the identical store from it.
	tr2 := transport.NewInProc()
	defer tr2.Close()
	srv2, err := NewServer(tr2, "node-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.EnableDurability(re); err != nil {
		t.Fatal(err)
	}
	if !srv2.Warm() {
		t.Fatal("server restored from sealed snapshot is not warm")
	}
	if got := srv2.Store().KeyCount(); got != wantKeys {
		t.Fatalf("restored store holds %d keys, want %d", got, wantKeys)
	}
	if got := srv2.Store().Config(); got != cfg {
		t.Fatalf("restored configuration %+v, want %+v", got, cfg)
	}
}

// TestReplayRefusesIndexRPCs restarts a durable daemon and calls it from
// inside its own replay, after the first store record: the store's
// services are attached by then but hold a prefix of the log, so a fetch
// must be refused (a coordinator then fails over to the next replica)
// rather than answered "absent", and hdk.search must be refused rather
// than wait out the replay. Once EnableDurability returns the daemon
// answers exactly as before the restart.
func TestReplayRefusesIndexRPCs(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	dir := t.TempDir()
	tr := transport.NewInProc()
	defer tr.Close()
	s := newDurableServer(t, tr, "node-0", dir, 1)
	c, err := Dial(Options{Transport: tr, Seed: s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildClusterEngine(t, c, col, cfg)
	req := core.SearchRequest{Terms: eng.QueryTerms(testQueries(col, 1)[0]), K: 10, NoCache: true}
	want, _, err := c.SearchVia(s.Addr(), req)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.PersistShutdown(); err != nil {
		t.Fatal(err)
	}

	tr2 := transport.NewInProc()
	defer tr2.Close()
	d, err := durable.Open(dir, durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewServer(tr2, "node-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.PersistShutdown()
	call := func(service string, payload []byte) error {
		_, err := tr2.Call(s2.Addr(), overlay.EncodeEnvelope(service, payload))
		return err
	}
	replayed := 0
	replayedHook = func(int) {
		if replayed++; replayed > 1 {
			return
		}
		if err := call(core.SvcFetchBatch, postings.EncodeKeyList(nil, req.Terms)); err == nil {
			// Stop here: hdk.search would then wait on the replay's lock.
			t.Error("hdk.fetchBatch answered from a half-replayed store")
			return
		}
		if err := call(core.SvcSearch, core.EncodeSearchRequest(req)); err == nil {
			t.Error("hdk.search answered mid-replay")
		}
	}
	defer func() { replayedHook = nil }()
	if err := s2.EnableDurability(d); err != nil {
		t.Fatal(err)
	}
	if replayed == 0 {
		t.Fatal("the restart replayed no store record")
	}
	c2, err := Dial(Options{Transport: tr2, Seed: s2.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := c2.SearchVia(s2.Addr(), req)
	if err != nil {
		t.Fatalf("search after replay: %v", err)
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("after replay %+v, before the restart %+v", got, want)
	}
}
