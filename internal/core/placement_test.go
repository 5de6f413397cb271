package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// ringChains builds successor-list replica chains on an n-member ring:
// chains[j] is the r consecutive members starting at primaries[j].
func ringChains(n, r int, primaries []int) [][]string {
	chains := make([][]string, len(primaries))
	for j, p := range primaries {
		for k := 0; k < r; k++ {
			chains[j] = append(chains[j], fmt.Sprintf("m%d", (p+k)%n))
		}
	}
	return chains
}

func cloneChains(chains [][]string) [][]string {
	out := make([][]string, len(chains))
	for j, c := range chains {
		out[j] = append([]string(nil), c...)
	}
	return out
}

// remoteReaders counts the distinct chain heads other than self.
func remoteReaders(chains [][]string, self string) int {
	seen := map[string]bool{}
	for _, c := range chains {
		if len(c) > 0 && c[0] != self {
			seen[c[0]] = true
		}
	}
	return len(seen)
}

func TestReadPlanTable(t *testing.T) {
	for _, tc := range []struct {
		name   string
		chains [][]string
		self   string
		want   [][]string
	}{
		{
			name:   "self first wherever it holds a copy, rest keep their order",
			chains: [][]string{{"a", "b", "c"}, {"b", "c", "a"}, {"c", "a", "b"}},
			self:   "c",
			want:   [][]string{{"c", "a", "b"}, {"c", "b", "a"}, {"c", "a", "b"}},
		},
		{
			name:   "R=1 is the identity",
			chains: [][]string{{"a"}, {"b"}, {"a"}},
			self:   "b",
			want:   [][]string{{"a"}, {"b"}, {"a"}},
		},
		{
			name:   "no coordinating member is the identity",
			chains: [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}},
			self:   "",
			want:   [][]string{{"a", "b"}, {"b", "c"}, {"c", "a"}},
		},
		{
			name:   "one remote member covers what self does not hold",
			chains: [][]string{{"a", "b"}, {"b", "c"}, {"c", "d"}},
			self:   "d",
			want:   [][]string{{"b", "a"}, {"b", "c"}, {"d", "c"}},
		},
		{
			name:   "a lone key is read from its primary",
			chains: [][]string{{"a", "b", "c"}},
			self:   "z",
			want:   [][]string{{"a", "b", "c"}},
		},
		{
			name:   "a tie goes to the first unread key's earlier replica",
			chains: [][]string{{"a", "b"}, {"b", "a"}},
			self:   "z",
			want:   [][]string{{"a", "b"}, {"a", "b"}},
		},
		{
			name:   "empty chains and empty levels pass through",
			chains: [][]string{nil, {"a", "b"}},
			self:   "b",
			want:   [][]string{nil, {"b", "a"}},
		},
	} {
		got := cloneChains(tc.chains)
		ReadPlan(got, tc.self)
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: ReadPlan(%v, %q) = %v, want %v", tc.name, tc.chains, tc.self, got, tc.want)
		}
	}
	ReadPlan(nil, "a") // must not panic
}

// TestReadPlanProperties checks the structural contract over random key
// sets on small rings: every output chain is a permutation of its input
// with the unchosen replicas in their original order, self leads every
// chain it appears in, the plan is deterministic, and the bench and CI
// cluster shapes stay within their remote-owner bounds.
func TestReadPlanProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for _, shape := range []struct{ n, r, maxRemote int }{
		{3, 2, 1}, // the bench shape: self, else the one other holder
		{5, 3, 2}, // the CI shape
		{6, 2, 6},
		{8, 3, 8},
	} {
		for trial := 0; trial < 400; trial++ {
			primaries := make([]int, 1+rng.Intn(10))
			for j := range primaries {
				primaries[j] = rng.Intn(shape.n)
			}
			in := ringChains(shape.n, shape.r, primaries)
			self := fmt.Sprintf("m%d", rng.Intn(shape.n))
			out := cloneChains(in)
			ReadPlan(out, self)

			again := cloneChains(in)
			ReadPlan(again, self)
			if !reflect.DeepEqual(out, again) {
				t.Fatalf("n=%d r=%d: plan not deterministic: %v vs %v", shape.n, shape.r, out, again)
			}
			for j := range in {
				if indexOf(in[j], self) >= 0 && out[j][0] != self {
					t.Fatalf("n=%d r=%d key %d: self %s holds a copy but %s is read first", shape.n, shape.r, j, self, out[j][0])
				}
				// Dropping the chosen reader from the input must leave
				// exactly the output's tail: a permutation that only moves
				// one replica to the front.
				var rest []string
				for _, a := range in[j] {
					if a != out[j][0] {
						rest = append(rest, a)
					}
				}
				if len(out[j]) != len(in[j]) || !reflect.DeepEqual(rest, out[j][1:]) {
					t.Fatalf("n=%d r=%d key %d: %v is not %v with one replica promoted", shape.n, shape.r, j, out[j], in[j])
				}
			}
			if got := remoteReaders(out, self); got > shape.maxRemote {
				t.Fatalf("n=%d r=%d self=%s: %d remote readers for %v, want <= %d",
					shape.n, shape.r, self, got, in, shape.maxRemote)
			}
		}
	}
}

// TestReadPlanNeverWorseThanPrimaryFirst: on any ring shape the plan
// contacts at most as many remote members as reading every key from its
// primary would.
func TestReadPlanNeverWorseThanPrimaryFirst(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(9)
		r := 1 + rng.Intn(n)
		primaries := make([]int, 1+rng.Intn(12))
		for j := range primaries {
			primaries[j] = rng.Intn(n)
		}
		in := ringChains(n, r, primaries)
		self := fmt.Sprintf("m%d", rng.Intn(n))
		out := cloneChains(in)
		ReadPlan(out, self)
		if got, was := remoteReaders(out, self), remoteReaders(in, self); got > was {
			t.Fatalf("n=%d r=%d self=%s chains %v: plan reads %d remote members, primary-first %d",
				n, r, self, in, got, was)
		}
	}
}

// readerForcingFabric wraps a fabric and rewrites every fetch address
// through a per-key choice of replica, so a test can force ANY member of
// a key's replica set to be the one that answers — independent of what
// ReadPlan would pick.
type readerForcingFabric struct {
	overlay.Fabric
	choose func(key string, owners []overlay.Member) overlay.Member
}

func (f *readerForcingFabric) OwnersOf(key string, r int) []overlay.Member {
	owners := f.Fabric.OwnersOf(key, r)
	chosen := f.choose(key, owners)
	out := []overlay.Member{chosen}
	for _, o := range owners {
		if o.ID() != chosen.ID() {
			out = append(out, o)
		}
	}
	return out
}

// TestSearchInvariantUnderReaderChoice is the reader-permutation
// property: whichever replica of each key answers, the encoded
// SearchResult body is byte-identical. Every fixed position of the
// replica set is forced for all keys at once, then seeded random
// per-key choices; searches run without a coordinating member so the
// forced reader is exactly the one read.
func TestSearchInvariantUnderReaderChoice(t *testing.T) {
	const peers, replicas, queries = 5, 3, 12
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	eng := buildReplicatedEngine(t, col, peers, replicas, cfg)

	search := func(net overlay.Fabric, from overlay.Member, i int) []byte {
		t.Helper()
		terms := eng.QueryTerms(corpus.Query{Terms: col.Docs[i].Terms[:3]})
		c := Coordinator{Net: net, Cfg: eng.cfg, From: from}
		res, err := c.Search(terms, 10)
		if err != nil {
			t.Fatal(err)
		}
		if res.Failovers != 0 {
			t.Fatalf("query %d: %d failovers on a healthy cluster", i, res.Failovers)
		}
		// The batch count legitimately depends on who answers; everything
		// else in the body must not.
		res.RPCs = 0
		return EncodeSearchResult(res)
	}
	forcedPos := func(pos int) func(string, []overlay.Member) overlay.Member {
		return func(_ string, owners []overlay.Member) overlay.Member { return owners[pos] }
	}
	want := make([][]byte, queries)
	for i := range want {
		want[i] = search(&readerForcingFabric{Fabric: eng.net, choose: forcedPos(0)}, nil, i)
	}
	check := func(name string, choose func(string, []overlay.Member) overlay.Member) {
		forced := &readerForcingFabric{Fabric: eng.net, choose: choose}
		for i := range want {
			if got := search(forced, nil, i); !bytes.Equal(got, want[i]) {
				t.Fatalf("%s: query %d: encoded result differs from the primary-first answer", name, i)
			}
		}
	}
	for pos := 1; pos < replicas; pos++ {
		check(fmt.Sprintf("every key read from replica %d", pos), forcedPos(pos))
	}
	for seed := int64(1); seed <= 8; seed++ {
		seed := seed
		check(fmt.Sprintf("seeded per-key choice %d", seed),
			func(key string, owners []overlay.Member) overlay.Member {
				h := overlay.HashKey(fmt.Sprintf("%d/%s", seed, key))
				return owners[uint64(h)%uint64(len(owners))]
			})
	}
	// And the placed reads themselves: every member coordinating gives
	// the same body.
	for _, m := range eng.net.Members() {
		for i := range want {
			if got := search(eng.net, m, i); !bytes.Equal(got, want[i]) {
				t.Fatalf("coordinated from %s: query %d: encoded result differs", m.Addr(), i)
			}
		}
	}
}

// TestFailoverFromChosenReader blocks exactly the member ReadPlan chose
// — a secondary promoted over the routed primary because it coordinates
// the query — and asserts the one blocked batch is re-sent exactly once,
// to the primary behind it in the chain, with a bit-identical answer.
func TestFailoverFromChosenReader(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	cfg.ReplicationFactor = 2
	const peers = 6

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

	// A single-term query has one key, so one fetch batch: coordinate it
	// from the key's SECONDARY, which the plan must read first.
	q := corpus.Query{Terms: col.Docs[0].Terms[:1]}
	terms := eng.QueryTerms(q)
	if len(terms) != 1 {
		t.Fatalf("query terms %v, want one", terms)
	}
	chain := replicaChain(net, 2, terms[0])
	from := net.OwnersOf(terms[0], 2)[1]
	plan := [][]string{append([]string(nil), chain...)}
	ReadPlan(plan, from.Addr())
	if plan[0][0] != from.Addr() || plan[0][1] != chain[0] {
		t.Fatalf("plan %v for chain %v coordinated from %s: want the secondary read first, the primary behind it",
			plan[0], chain, from.Addr())
	}
	want, err := eng.Search(q, from, 20)
	if err != nil {
		t.Fatal(err)
	}
	if want.RPCs != 1 || want.Failovers != 0 {
		t.Fatalf("healthy single-key query: %d RPCs, %d failovers", want.RPCs, want.Failovers)
	}
	blocker.victim = from.Addr()
	blocker.arm()
	got, err := eng.Search(q, from, 20)
	if err != nil {
		t.Fatalf("search with the chosen reader blocked: %v", err)
	}
	if blocker.count() != 1 || got.Failovers != 1 || got.RPCs != 2 {
		t.Fatalf("blocked %d batches, %d failovers, %d RPCs: want exactly one re-sent batch",
			blocker.count(), got.Failovers, got.RPCs)
	}
	got.RPCs, got.Failovers = want.RPCs, 0
	if !bytes.Equal(EncodeSearchResult(got), EncodeSearchResult(want)) {
		t.Fatal("answer changed when the chosen reader failed over")
	}
}

// TestUnrepairedCrashReadsPrimaryFirst: between FailNode and
// RepairReplicas a member promoted into a replica set by the crash holds
// no copy of the key, so placing reads on it would silently lose
// results. The fabric reports the departure as unrepaired and the
// traversal — Engine.Search and Coordinator.Search alike, it is one —
// keeps reads on the routed primary, which successor-list promotion
// guarantees is an old full replica, until the repair sweep settles the
// debt; then reads are placed again, whichever member coordinates.
func TestUnrepairedCrashReadsPrimaryFirst(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	const peers, queries = 8, 25
	eng := buildReplicatedEngine(t, col, peers, 2, cfg)
	before := searchAll(t, eng, col, queries)

	// Crash the primary of a probe key: its chain becomes {old secondary,
	// promoted}, and a single-key query coordinated by the promoted
	// member shows which of the two is read.
	probe := eng.QueryTerms(corpus.Query{Terms: col.Docs[0].Terms[:1]})
	if len(probe) != 1 {
		t.Fatalf("probe terms %v, want one", probe)
	}
	if err := eng.FailNode(eng.net.OwnersOf(probe[0], 2)[0]); err != nil {
		t.Fatal(err)
	}
	if !eng.net.View().Owed() {
		t.Fatal("fabric does not report the crash as unrepaired")
	}
	owners := eng.net.OwnersOf(probe[0], 2)
	primary, promoted := owners[0], owners[1]
	readerOf := func(from overlay.Member) string {
		t.Helper()
		tb := telemetry.StartTrace("coordinate")
		c := Coordinator{Net: eng.net, Cfg: eng.cfg, From: from}
		if _, err := c.SearchTraced(probe, 20, tb); err != nil {
			t.Fatal(err)
		}
		trace := tb.Finish()
		fetches := trace.Find("fetch")
		if len(fetches) != 1 {
			t.Fatalf("single-key probe: %d fetch spans, want 1", len(fetches))
		}
		return trace.Spans[fetches[0]].Attr("owner")
	}
	searchFrom := func(from overlay.Member) [][]byte {
		out := make([][]byte, queries)
		for i := range out {
			res, err := eng.Search(corpus.Query{Terms: col.Docs[i].Terms[:2]}, from, 20)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = EncodeSearchResult(&SearchResult{Results: res.Results})
		}
		return out
	}
	want := make([][]byte, queries)
	for i := range want {
		want[i] = EncodeSearchResult(&SearchResult{Results: before[i]})
	}
	for _, m := range eng.net.Members() {
		if got := searchFrom(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("unrepaired crash, coordinated from %s: results changed", m.Addr())
		}
	}
	if got := readerOf(promoted); got != primary.Addr() {
		t.Fatalf("unrepaired: %s read the probe key from %s, want the primary %s", promoted.Addr(), got, primary.Addr())
	}

	if _, err := eng.RepairReplicas(); err != nil {
		t.Fatal(err)
	}
	if eng.net.View().Owed() {
		t.Fatal("fabric still unrepaired after a complete sweep")
	}
	for _, m := range eng.net.Members() {
		if got := searchFrom(m); !reflect.DeepEqual(got, want) {
			t.Fatalf("after repair, coordinated from %s: results changed", m.Addr())
		}
	}
	if got := readerOf(promoted); got != promoted.Addr() {
		t.Fatalf("repaired: %s read the probe key from %s, want its own copy", promoted.Addr(), got)
	}
}

// TestGracefulLeaveOwesNoRepair: RemoveNode hands the leaver's entries
// to every member its departure promotes, so reads stay placed — unless
// an earlier crash is still unrepaired, which a leave must not settle.
func TestGracefulLeaveOwesNoRepair(t *testing.T) {
	col := testCollection(t, 60)
	eng := buildReplicatedEngine(t, col, 8, 2, testConfig(col, 6))
	if err := eng.RemoveNode(eng.net.Members()[1]); err != nil {
		t.Fatal(err)
	}
	if eng.net.View().Owed() || !mustAudit(t, eng).FullyReplicated() {
		t.Fatalf("graceful leave: unrepaired=%t, audit %+v", eng.net.View().Owed(), mustAudit(t, eng))
	}
	if err := eng.FailNode(eng.net.Members()[1]); err != nil {
		t.Fatal(err)
	}
	if err := eng.RemoveNode(eng.net.Members()[1]); err != nil {
		t.Fatal(err)
	}
	if !eng.net.View().Owed() {
		t.Fatal("a graceful leave settled an earlier crash's repair debt")
	}
}

func BenchmarkProbeLevelPlacement(b *testing.B) {
	for _, shape := range []struct{ n, r int }{{3, 2}, {5, 3}} {
		b.Run(fmt.Sprintf("members=%d/R=%d", shape.n, shape.r), func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			primaries := make([]int, 8)
			for j := range primaries {
				primaries[j] = rng.Intn(shape.n)
			}
			in := ringChains(shape.n, shape.r, primaries)
			work := cloneChains(in)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				for j := range in {
					copy(work[j], in[j])
				}
				ReadPlan(work, "m0")
			}
		})
	}
}
