package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/transport"
)

// testCollection generates a small deterministic corpus.
func testCollection(t *testing.T, docs int) *corpus.Collection {
	t.Helper()
	col, err := corpus.Generate(corpus.GenParams{
		NumDocs: docs, VocabSize: 1500, AvgDocLen: 40,
		Skew: 1.0, NumTopics: 6, TopicTerms: 60, TopicMix: 0.5, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return col
}

func testConfig(col *corpus.Collection, replicas int) core.Config {
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = 8
	cfg.Window = 8
	cfg.ReplicationFactor = replicas
	return cfg
}

// startInProcServers binds n daemon servers on one shared in-process
// transport.
func startInProcServers(t *testing.T, tr transport.Transport, n, replicas int) []*Server {
	t.Helper()
	servers := make([]*Server, n)
	for i := range servers {
		s, err := NewServer(tr, fmt.Sprintf("node-%d", i), replicas)
		if err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := s.Join(servers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
		servers[i] = s
	}
	return servers
}

func TestJoinConvergesMembership(t *testing.T) {
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 4, 1)

	want := []string{"node-0", "node-1", "node-2", "node-3"}
	for i, s := range servers {
		if got := s.view().Members; !reflect.DeepEqual(got, want) {
			t.Fatalf("server %d members = %v, want %v", i, got, want)
		}
	}
	// Discovery through any member sees the full cluster.
	for _, seed := range want {
		addrs, err := MembersOf(tr, seed)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(addrs, want) {
			t.Fatalf("MembersOf(%s) = %v, want %v", seed, addrs, want)
		}
	}
	info, err := FetchInfo(tr, "node-2")
	if err != nil {
		t.Fatal(err)
	}
	if info.Addr != "node-2" || info.Configured {
		t.Fatalf("info = %+v", info)
	}
	snap, err := FetchMetrics(tr, "node-2")
	if err != nil {
		t.Fatal(err)
	}
	if members, _ := snap.Gauge(metricClusterMembers); members != 4 {
		t.Fatalf("%s = %v, want 4", metricClusterMembers, members)
	}
}

func TestConfigureIdempotentAndGuarded(t *testing.T) {
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 2, 1)
	col := testCollection(t, 40)

	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(col, 1)
	if err := c.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatalf("re-sending identical config: %v", err)
	}
	other := cfg
	other.DFMax = 99
	if err := c.Configure(other); err == nil {
		t.Fatal("divergent reconfiguration accepted")
	}
	if got := servers[1].Store().Config(); got != cfg {
		t.Fatalf("daemon store config = %+v, want %+v", got, cfg)
	}
}

// TestConfigureAcceptsRetiredSearchFanout configures a durable daemon
// from a payload written while the search fan-out was still a Config
// field, as older clients send it and older data directories hold it:
// the retired "SearchFanout" key is ignored, the daemon serves the
// configuration the payload otherwise carries, and a current client's
// re-send of that configuration is accepted — before and after a warm
// restart that replays the legacy record from the data directory.
func TestConfigureAcceptsRetiredSearchFanout(t *testing.T) {
	cfg := testConfig(testCollection(t, 40), 1)
	current, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	legacy := append([]byte(`{"SearchFanout":4,`), current[1:]...)
	dir := t.TempDir()

	tr := transport.NewInProc()
	defer tr.Close()
	srv := newDurableServer(t, tr, "node-0", dir, 1)
	c, err := Dial(Options{Transport: tr, Seed: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.ingestBegin(srv.Addr(), ingestBegin{Config: legacy}); err != nil {
		t.Fatal(err)
	}
	if got := srv.Store().Config(); got != cfg {
		t.Fatalf("daemon store config = %+v, want %+v", got, cfg)
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatalf("current client re-sending the legacy-configured daemon's configuration: %v", err)
	}

	// Warm restart: the data directory's configuration record still
	// carries the retired field.
	tr.Close()
	tr2 := transport.NewInProc()
	defer tr2.Close()
	restarted := newDurableServer(t, tr2, "node-0", dir, 1)
	if got := restarted.Store().Config(); got != cfg {
		t.Fatalf("restarted daemon store config = %+v, want %+v", got, cfg)
	}
	c2, err := Dial(Options{Transport: tr2, Seed: restarted.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c2.Configure(cfg); err != nil {
		t.Fatalf("current client configuring a daemon restarted from a legacy record: %v", err)
	}
}

// TestConfigureRefusesRetiredModelSwitches covers the two Config fields
// that once switched redundancy filtering and NDK storage off. A payload
// that sets one is refused by name and leaves the daemon unconfigured,
// also across a restart from its data directory. A payload shaped as
// older clients and data directories send it, with both fields false,
// canonicalizes to the bytes a current client sends, so the daemon
// accepts the current client's configuration as the same one.
func TestConfigureRefusesRetiredModelSwitches(t *testing.T) {
	cfg := testConfig(testCollection(t, 40), 1)
	current, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("set-is-refused", func(t *testing.T) {
		dir := t.TempDir()
		tr := transport.NewInProc()
		defer tr.Close()
		srv := newDurableServer(t, tr, "node-0", dir, 1)
		c, err := Dial(Options{Transport: tr, Seed: srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		payload := append([]byte(`{"DisableNDKStorage":true,`), current[1:]...)
		_, err = c.ingestBegin(srv.Addr(), ingestBegin{Config: payload})
		if err == nil || !strings.Contains(err.Error(), "DisableNDKStorage") {
			t.Fatalf("begin with DisableNDKStorage set: err = %v, want a refusal naming the field", err)
		}
		if srv.Store() != nil {
			t.Fatal("daemon configured from a refused payload")
		}
		tr.Close()
		tr2 := transport.NewInProc()
		defer tr2.Close()
		if restarted := newDurableServer(t, tr2, "node-0", dir, 1); restarted.Store() != nil {
			t.Fatal("daemon restarted from its data directory is configured by a refused payload")
		}
	})

	t.Run("false-is-accepted", func(t *testing.T) {
		older := append(bytes.Clone(current[:len(current)-1]), `,"DisableRedundancyFiltering":false,"DisableNDKStorage":false}`...)
		got, canon, err := canonicalConfig(older)
		if err != nil {
			t.Fatal(err)
		}
		if got != cfg || !bytes.Equal(canon, current) {
			t.Fatalf("older payload canonicalizes to %s, want %s", canon, current)
		}
		tr := transport.NewInProc()
		defer tr.Close()
		srv := startInProcServers(t, tr, 1, 1)[0]
		c, err := Dial(Options{Transport: tr, Seed: srv.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := c.ingestBegin(srv.Addr(), ingestBegin{Config: older}); err != nil {
			t.Fatal(err)
		}
		if err := c.Configure(cfg); err != nil {
			t.Fatalf("current client re-sending an older client's configuration: %v", err)
		}
	})
}

// buildReferenceEngine builds the classic in-process engine over a Chord
// overlay as ground truth.
func buildReferenceEngine(t *testing.T, col *corpus.Collection, peers int, cfg core.Config) *core.Engine {
	t.Helper()
	net := overlay.NewNetwork(transport.NewInProc())
	nodes := make([]*overlay.Node, peers)
	for i := range nodes {
		var err error
		if nodes[i], err = net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
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
	return eng
}

// buildClusterEngine configures the daemons and builds the same index
// through the cluster client fabric.
func buildClusterEngine(t *testing.T, c *Client, col *corpus.Collection, cfg core.Config) *core.Engine {
	t.Helper()
	if err := c.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	eng, err := core.NewEngine(c, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	members := c.Members()
	for i, part := range col.SplitRoundRobin(len(members)) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	return eng
}

func testQueries(col *corpus.Collection, n int) []corpus.Query {
	qs := make([]corpus.Query, 0, n)
	for i := 0; i < n; i++ {
		d := &col.Docs[(i*7)%col.M()]
		k := 3
		if len(d.Terms) < k {
			k = len(d.Terms)
		}
		qs = append(qs, corpus.Query{Terms: d.Terms[:k]})
	}
	return qs
}

// TestClusterEngineMatchesInProcess is the deployment-parity core: the
// SAME engine code, building through daemon-hosted stores over the
// cluster fabric, must serve bit-identical ranked results to the
// in-process engine on the same corpus and configuration.
func TestClusterEngineMatchesInProcess(t *testing.T) {
	const peers = 4
	col := testCollection(t, 120)
	cfg := testConfig(col, 1)

	ref := buildReferenceEngine(t, col, peers, cfg)

	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, peers, 1)
	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildClusterEngine(t, c, col, cfg)

	// Index content parity: total resident postings and keys agree.
	refStats := ref.Stats()
	nodeStats, err := c.StoreStats()
	if err != nil {
		t.Fatal(err)
	}
	posts, keys := 0, 0
	for _, ns := range nodeStats {
		posts += ns.Stats.PostsTotal()
		keys += ns.Stats.KeysTotal()
	}
	if posts != refStats.StoredTotal || keys != refStats.KeysTotal {
		t.Fatalf("cluster stores %d postings/%d keys, reference %d/%d",
			posts, keys, refStats.StoredTotal, refStats.KeysTotal)
	}

	// A SECOND client re-sending the identical configuration after the
	// build must be refused: re-running BuildIndex against populated
	// stores would double every df and silently corrupt classifications.
	if err := c.Configure(cfg); err == nil {
		t.Fatal("re-configuring a built cluster accepted")
	}

	refOrigin := ref.Network().Members()[0]
	cluOrigin := c.Members()[0]
	for qi, q := range testQueries(col, 25) {
		want, err := ref.Search(q, refOrigin, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, err := eng.Search(q, cluOrigin, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Fatalf("query %d: ranked results diverge\nref: %v\nclu: %v", qi, want.Results, got.Results)
		}
		if want.FetchedPosts != got.FetchedPosts || want.ProbedKeys != got.ProbedKeys || want.FoundKeys != got.FoundKeys {
			t.Fatalf("query %d: cost metrics diverge: ref %+v, cluster %+v", qi, want, got)
		}
	}
}

// TestClusterCrashFailoverAndRepair runs the full failure sequence over
// real sockets in one test process: every daemon owns its own TCP
// transport, so closing one is a crash. R=3: searches first fail over
// around the dead member (still in the membership table), then the
// member is removed and repair restores full coverage.
func TestClusterCrashFailoverAndRepair(t *testing.T) {
	const peers, replicas = 5, 3
	col := testCollection(t, 100)
	cfg := testConfig(col, replicas)

	servers := make([]*Server, peers)
	trs := make([]*transport.TCP, peers)
	byAddr := make(map[string]int)
	for i := range servers {
		trs[i] = transport.NewTCP()
		defer trs[i].Close()
		var err error
		servers[i], err = NewServer(trs[i], "127.0.0.1:0", replicas)
		if err != nil {
			t.Fatal(err)
		}
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
	if c.Size() != peers {
		t.Fatalf("client sees %d members, want %d", c.Size(), peers)
	}
	eng := buildClusterEngine(t, c, col, cfg)

	queries := testQueries(col, 15)

	// The victim is the daemon that owns the first query's first term —
	// a guaranteed level-1 probe. Owning a key no longer means being read
	// for it: reads are placed (core.ReadPlan) on the coordinating member
	// when it holds a copy, else on the fewest other members. So the
	// origin is chosen from the plan itself: a surviving member whose
	// first-level plan for some query reads from the victim, which makes
	// the dead member a CHOSEN reader and the failover assertion below a
	// certainty instead of a coin flip over the ephemeral ports.
	probeTerm := queries[0].Terms[0]
	victim, ok := c.OwnerOf(col.Vocab[probeTerm])
	if !ok {
		t.Fatal("empty membership")
	}
	var origin overlay.Member
	for _, q := range queries {
		if origin = c.CoordinatorReading(eng.QueryTerms(q), replicas, victim.Addr()); origin != nil {
			break
		}
	}
	if origin == nil {
		t.Fatal("no surviving coordinator's plan reads from the victim — test proves nothing")
	}
	intact := make([][]rank.Result, len(queries))
	for i, q := range queries {
		res, err := eng.Search(q, origin, 10)
		if err != nil {
			t.Fatal(err)
		}
		intact[i] = res.Results
	}

	// Crash it WITHOUT telling the client: the query set must discover
	// the dead reader and fail over to surviving replicas while staying
	// bit-identical.
	vi := byAddr[victim.Addr()]
	trs[vi].Close()

	failovers := 0
	for i, q := range queries {
		res, err := eng.Search(q, origin, 10)
		if err != nil {
			t.Fatalf("query %d after crash: %v", i, err)
		}
		if !reflect.DeepEqual(intact[i], res.Results) {
			t.Fatalf("query %d: results changed after crash with R=%d", i, replicas)
		}
		failovers += res.Failovers
	}
	if failovers == 0 {
		t.Fatal("no fetch batch failed over to a replica — crash not exercised")
	}

	// Now the operator notices and removes the member everywhere — from
	// the client's view and, in the order the deployment scenario and
	// hdksearch -forget use, from the daemons' views BEFORE any repair.
	// The crash promoted members into the victim's replica sets that
	// hold no copy of those keys yet; a coordinator placing its reads on
	// one of them (itself, most cheaply) would be told "absent" and
	// silently prune the key's supersets.
	if err := eng.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if !c.View().Owed() {
		t.Fatal("client view not marked unrepaired after losing a member")
	}
	if err := c.Forget(victim.Addr()); err != nil {
		t.Fatal(err)
	}
	if under := mustAudit(t, c, replicas).UnderReplicated; under == 0 {
		t.Fatal("audit reports full coverage right after losing a member")
	}
	// The probe key's replica set is now {old secondary, old tertiary,
	// promoted}: the promoted member holds nothing, so coordinating a
	// query for just that key THROUGH it tells placed reads (it reads
	// itself) from primary-first ones apart.
	probe := core.SearchRequest{Terms: eng.QueryTerms(corpus.Query{Terms: []corpus.TermID{probeTerm}}), K: 10, NoCache: true}
	if len(probe.Terms) != 1 {
		t.Fatalf("probe query renders to %v, want one key", probe.Terms)
	}
	owners := c.OwnersOf(probe.Terms[0], replicas)
	primary, promoted := owners[0].Addr(), owners[replicas-1].Addr()
	readerOf := func(via string) string {
		t.Helper()
		_, trace, err := c.SearchTraceVia(via, probe)
		if err != nil {
			t.Fatal(err)
		}
		fetches := trace.Find("fetch")
		if len(fetches) != 1 {
			t.Fatalf("single-key probe via %s: %d fetch spans, want 1", via, len(fetches))
		}
		return trace.Spans[fetches[0]].Attr("owner")
	}
	sweepSurvivors := func(when string, unrepaired bool) {
		t.Helper()
		for _, m := range c.Members() {
			if got := servers[byAddr[m.Addr()]].view().Unrepaired; got != unrepaired {
				t.Fatalf("%s: %s reports unrepaired=%t, want %t", when, m.Addr(), got, unrepaired)
			}
			for i, q := range queries {
				res, _, err := c.SearchVia(m.Addr(), core.SearchRequest{Terms: eng.QueryTerms(q), K: 10, NoCache: true})
				if err != nil {
					t.Fatalf("%s: query %d via %s: %v", when, i, m.Addr(), err)
				}
				if !reflect.DeepEqual(intact[i], res.Results) {
					t.Fatalf("%s: query %d coordinated by %s changed", when, i, m.Addr())
				}
			}
		}
	}
	sweepSurvivors("forgotten, unrepaired", true)
	if got := readerOf(promoted); got != primary {
		t.Fatalf("unrepaired: %s read the probe key from %s, want its primary %s", promoted, got, primary)
	}
	// A client dialing into the window adopts the debt with the view.
	during, err := Dial(Options{Transport: ctr, Seed: c.Members()[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if during.Size() != peers-1 || !during.View().Owed() {
		t.Fatalf("client dialed before repair: %d members, unrepaired=%t", during.Size(), during.View().Owed())
	}

	rstats, err := c.Repairer(replicas).Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rstats.CopiesSent == 0 {
		t.Fatal("repair shipped nothing")
	}
	if under := mustAudit(t, c, replicas).UnderReplicated; under != 0 {
		t.Fatalf("%d keys still under-replicated after repair", under)
	}
	if c.View().Owed() {
		t.Fatal("client view still unrepaired after a complete sweep")
	}
	for i, q := range queries {
		res, err := eng.Search(q, origin, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(intact[i], res.Results) {
			t.Fatalf("query %d: results changed after repair", i)
		}
	}
	// The sweep reported in: every daemon places its reads again — the
	// promoted member now answers the probe key from its own store.
	sweepSurvivors("repaired", false)
	if got := readerOf(promoted); got != promoted {
		t.Fatalf("repaired: %s read the probe key from %s, want its own copy", promoted, got)
	}

	// A NEW client's discovery starts clean: no dead address, no debt.
	fresh, err := Dial(Options{Transport: ctr, Seed: c.Members()[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if fresh.Size() != peers-1 || fresh.View().Owed() {
		t.Fatalf("fresh client sees %d members (want %d), unrepaired=%t", fresh.Size(), peers-1, fresh.View().Owed())
	}
	for _, m := range fresh.Members() {
		if m.Addr() == victim.Addr() {
			t.Fatal("fresh client rediscovered the dead member")
		}
	}
}

// TestForgetAndRepairInEitherOrder pins the repair-debt protocol between
// a client and the daemons' views: forgetting a member of a built
// cluster leaves every daemon unrepaired until a sweep over that same
// membership reports in, whichever of forget and repair comes first; a
// notice from a client that still lists the member says nothing about
// the daemons' view; and before any build there is no debt to raise.
func TestForgetAndRepairInEitherOrder(t *testing.T) {
	const peers, replicas = 5, 2
	col := testCollection(t, 60)
	cfg := testConfig(col, replicas)
	unrepaired := func(servers []*Server, skip string) (n int) {
		for _, s := range servers {
			if s.Addr() != skip && s.view().Unrepaired {
				n++
			}
		}
		return n
	}

	t.Run("forget then repair", func(t *testing.T) {
		tr := transport.NewInProc()
		defer tr.Close()
		servers := startInProcServers(t, tr, peers, replicas)
		c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		eng := buildClusterEngine(t, c, col, cfg)
		stale, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()}) // never learns of the departure
		if err != nil {
			t.Fatal(err)
		}
		victim := c.Members()[2]
		if err := eng.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Forget(victim.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := unrepaired(servers, victim.Addr()); got != peers-1 {
			t.Fatalf("%d of %d surviving daemons unrepaired after forget", got, peers-1)
		}
		if err := stale.MarkRepaired(stale.View().Addrs()); err != nil {
			t.Fatal(err)
		}
		if got := unrepaired(servers, victim.Addr()); got != peers-1 {
			t.Fatalf("a notice for a %d-member view settled %d daemons' %d-member views", peers, peers-1-got, peers-1)
		}
		if _, err := eng.RepairReplicas(); err != nil {
			t.Fatal(err)
		}
		if got := unrepaired(servers, victim.Addr()); got != 0 || c.View().Owed() {
			t.Fatalf("after the sweep: %d daemons unrepaired, client unrepaired=%t", got, c.View().Owed())
		}
	})

	t.Run("repair then forget", func(t *testing.T) {
		tr := transport.NewInProc()
		defer tr.Close()
		servers := startInProcServers(t, tr, peers, replicas)
		c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		eng := buildClusterEngine(t, c, col, cfg)
		victim := c.Members()[2]
		if err := eng.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		if _, err := eng.RepairReplicas(); err != nil {
			t.Fatal(err)
		}
		// The daemons still list the victim: their chains never changed,
		// so they were never in debt and the notice was not for them.
		if got := unrepaired(servers, victim.Addr()); got != 0 {
			t.Fatalf("%d daemons unrepaired before any forget", got)
		}
		if err := c.Forget(victim.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := unrepaired(servers, victim.Addr()); got != 0 {
			t.Fatalf("%d daemons left unrepaired by a forget that followed the repair", got)
		}
		for _, s := range servers {
			if s.Addr() != victim.Addr() && len(s.view().Members) != peers-1 {
				t.Fatalf("%s still lists %d members", s.Addr(), len(s.view().Members))
			}
		}
	})

	t.Run("a joiner adopts the view's debt", func(t *testing.T) {
		tr := transport.NewInProc()
		defer tr.Close()
		servers := startInProcServers(t, tr, peers, replicas)
		c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		eng := buildClusterEngine(t, c, col, cfg)
		victim := c.Members()[2]
		if err := eng.FailNode(victim); err != nil {
			t.Fatal(err)
		}
		if err := c.Forget(victim.Addr()); err != nil {
			t.Fatal(err)
		}
		late, err := NewServer(tr, "node-late", replicas)
		if err != nil {
			t.Fatal(err)
		}
		if err := late.Join(c.Members()[0].Addr()); err != nil {
			t.Fatal(err)
		}
		if v := late.view(); !v.Unrepaired || len(v.Members) != peers {
			t.Fatalf("joiner's view: %d members, unrepaired=%t", len(v.Members), v.Unrepaired)
		}
	})

	t.Run("forget before any build", func(t *testing.T) {
		tr := transport.NewInProc()
		defer tr.Close()
		servers := startInProcServers(t, tr, peers, replicas)
		c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		victim := c.Members()[2]
		c.RemoveNode(victim.ID())
		if err := c.Forget(victim.Addr()); err != nil {
			t.Fatal(err)
		}
		if got := unrepaired(servers, victim.Addr()); got != 0 {
			t.Fatalf("%d daemons unrepaired with nothing indexed", got)
		}
	})
}

// TestJoinSurvivesDeadMember: a new daemon must still be able to join
// when the seed's grow-only view names a crashed member (announce is
// best-effort; the dead address is cleaned up separately via Forget).
func TestJoinSurvivesDeadMember(t *testing.T) {
	trs := make([]*transport.TCP, 4)
	servers := make([]*Server, 4)
	for i := 0; i < 3; i++ {
		trs[i] = transport.NewTCP()
		defer trs[i].Close()
		var err error
		if servers[i], err = NewServer(trs[i], "127.0.0.1:0", 1); err != nil {
			t.Fatal(err)
		}
		if i > 0 {
			if err := servers[i].Join(servers[0].Addr()); err != nil {
				t.Fatal(err)
			}
		}
	}
	trs[2].Close() // crash the third daemon; nobody Forgets it

	trs[3] = transport.NewTCP()
	defer trs[3].Close()
	var err error
	if servers[3], err = NewServer(trs[3], "127.0.0.1:0", 1); err != nil {
		t.Fatal(err)
	}
	if err := servers[3].Join(servers[0].Addr()); err != nil {
		t.Fatalf("join with a dead member in the seed's view: %v", err)
	}
	if got := len(servers[3].view().Members); got != 4 {
		t.Fatalf("joiner sees %d members, want 4 (3 live + 1 dead, pending Forget)", got)
	}
	// The surviving announced member learned the joiner.
	found := false
	for _, a := range servers[1].view().Members {
		if a == servers[3].Addr() {
			found = true
		}
	}
	if !found {
		t.Fatal("live member did not learn the joiner")
	}
}

func TestClientChurnAndOwnership(t *testing.T) {
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 5, 2)
	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}

	// Replica sets mirror the ring's successor-list contract.
	for _, key := range []string{"alpha", "beta", "gamma:delta"} {
		owners := c.OwnersOf(key, 2)
		if len(owners) != 2 || owners[0].ID() == owners[1].ID() {
			t.Fatalf("OwnersOf(%q) = %v", key, owners)
		}
		primary, ok := c.OwnerOf(key)
		if !ok || primary.ID() != owners[0].ID() {
			t.Fatalf("OwnerOf(%q) disagrees with OwnersOf", key)
		}
		// The resolved primary is the daemon answering at its address.
		if info, err := FetchInfo(tr, primary.Addr()); err != nil || info.ID != fmt.Sprintf("%016x", uint64(primary.ID())) {
			t.Fatalf("primary of %q at %s answers as %+v, %v", key, primary.Addr(), info, err)
		}
	}

	// Removing the primary promotes the old second replica.
	key := "alpha"
	before := c.OwnersOf(key, 2)
	if !c.RemoveNode(before[0].ID()) {
		t.Fatal("RemoveNode failed")
	}
	after, ok := c.OwnerOf(key)
	if !ok || after.ID() != before[1].ID() {
		t.Fatalf("post-churn owner = %v, want promoted replica %v", after, before[1])
	}
	if c.Size() != 4 {
		t.Fatalf("Size = %d, want 4", c.Size())
	}
	if c.RemoveNode(before[0].ID()) {
		t.Fatal("double remove succeeded")
	}
	// Calls to the removed address fail fast.
	if _, err := c.CallService(before[0].Addr(), ctrlInfo, nil); err == nil {
		t.Fatal("call to removed member succeeded")
	}
}

// mustAudit runs the client's replica audit at factor r, failing the
// test on a sweep error.
func mustAudit(t *testing.T, c *Client, r int) replica.AuditStats {
	t.Helper()
	st, err := c.Audit(r)
	if err != nil {
		t.Fatal(err)
	}
	return st
}
