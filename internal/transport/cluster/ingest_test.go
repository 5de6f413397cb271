package cluster

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/durable"
	"repro/internal/overlay"
	"repro/internal/transport"
)

// TestStreamShardPartition pins ShardSource's iterator to the
// SplitRoundRobin placement the fat client and the in-process reference
// use: document j goes to member j%n, every document exactly
// once, and the advertised shard count matches the iteration — the
// invariants that make a streamed build bit-identical to a resident
// one.
func TestStreamShardPartition(t *testing.T) {
	col, err := corpus.Generate(corpus.GenParams{
		NumDocs: 53, VocabSize: 300, AvgDocLen: 20,
		Skew: 1.0, NumTopics: 4, TopicTerms: 40, TopicMix: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, 7} {
		seen := make(map[corpus.DocID]int)
		ref := col.SplitRoundRobin(n)
		for idx := 0; idx < n; idx++ {
			src := ShardSource(col, core.Config{}, 1, idx, n)
			var docs []corpus.Document
			for {
				d, ok := src.Docs()
				if !ok {
					break
				}
				docs = append(docs, d)
				seen[d.ID]++
			}
			if len(docs) != src.ShardDocs {
				t.Errorf("n=%d shard %d: advertised %d docs, iterated %d", n, idx, src.ShardDocs, len(docs))
			}
			if len(docs) != len(ref[idx].Docs) {
				t.Errorf("n=%d shard %d: %d docs, SplitRoundRobin has %d", n, idx, len(docs), len(ref[idx].Docs))
				continue
			}
			for j, d := range docs {
				if d.ID != ref[idx].Docs[j].ID {
					t.Errorf("n=%d shard %d doc %d: ID %v, SplitRoundRobin has %v", n, idx, j, d.ID, ref[idx].Docs[j].ID)
					break
				}
			}
		}
		if len(seen) != len(col.Docs) {
			t.Errorf("n=%d: shards cover %d distinct docs, want %d", n, len(seen), len(col.Docs))
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: doc %v appears %d times across shards", n, id, c)
			}
		}
	}
}

// TestIngestRemoteBuildMatchesInProcess is the tentpole proof: a thin
// client that never holds the corpus streams each daemon its shard over
// hdk.ingest, any daemon coordinates the round-synchronous build over
// hdk.build, and the resulting cluster index matches the in-process
// single-engine reference — same store totals, same ranked results,
// same cost metrics. Along the way it checks the resume invariant (a
// re-sent session ships zero chunks) and the typed ingest guards.
func TestIngestRemoteBuildMatchesInProcess(t *testing.T) {
	const peers = 4
	col := testCollection(t, 120)
	cfg := testConfig(col, 1)
	ref := buildReferenceEngine(t, col, peers, cfg)

	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, peers, 1)
	c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr(), ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	members := c.Members()

	for i, m := range members {
		st, err := c.Ingest(m.Addr(), ShardSource(col, cfg, 1, i, len(members)))
		if err != nil {
			t.Fatalf("ingest to %s: %v", m.Addr(), err)
		}
		if st.Chunks < 2 || st.ChunksSent != st.Chunks || st.ChunksSkipped != 0 {
			t.Fatalf("fresh ingest to %s: %+v", m.Addr(), st)
		}
	}

	// Resume invariant, pre-build: re-running the identical session must
	// re-ship nothing — the begin reports every chunk held, and the
	// client skips each one whose digest matches.
	st, err := c.Ingest(members[1].Addr(), ShardSource(col, cfg, 1, 1, len(members)))
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksSent != 0 || st.ChunksSkipped != st.Chunks {
		t.Fatalf("resumed ingest re-shipped chunks: %+v", st)
	}

	// Any daemon coordinates — pick a non-seed one. Progress must
	// surface per-round through cluster.info.
	var lastInfo Info
	if err := c.BuildRemote(members[2].Addr(), func(info Info) { lastInfo = info }); err != nil {
		t.Fatalf("remote build: %v", err)
	}
	if lastInfo.BuildState != "done" || lastInfo.BuildRound != cfg.SMax {
		t.Fatalf("final build progress = state %q round %d, want done/%d",
			lastInfo.BuildState, lastInfo.BuildRound, cfg.SMax)
	}

	// A repeated start observes the finished build instead of forking a
	// second one (which would double every df).
	if err := c.BuildRemote(members[2].Addr(), nil); err != nil {
		t.Fatalf("idempotent build start: %v", err)
	}

	// Index content parity with the in-process reference.
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
		t.Fatalf("remote build stores %d postings/%d keys, reference %d/%d",
			posts, keys, refStats.StoredTotal, refStats.KeysTotal)
	}

	// The built cluster refuses further sessions and divergent configs
	// with errors.Is-matchable rejections.
	if _, err := c.Ingest(members[0].Addr(), ShardSource(col, cfg, 2, 0, len(members))); !errors.Is(err, ErrAlreadyBuilt) {
		t.Fatalf("ingest into built cluster: err = %v, want ErrAlreadyBuilt", err)
	}
	cfg2 := cfg
	cfg2.DFMax++
	if err := c.Configure(cfg2); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("divergent configure: err = %v, want ErrConfigMismatch", err)
	}

	// Ranked-result parity, coordinated by rotating daemons — the thin
	// client needs no engine to query either.
	refOrigin := ref.Network().Members()[0]
	for qi, q := range testQueries(col, 25) {
		want, err := ref.Search(q, refOrigin, 10)
		if err != nil {
			t.Fatal(err)
		}
		got, _, err := c.SearchVia(members[qi%len(members)].Addr(),
			core.SearchRequest{Terms: ref.QueryTerms(q), K: 10})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			t.Fatalf("query %d: remote-built index diverges from reference\nref:    %v\nremote: %v",
				qi, want.Results, got.Results)
		}
		if got.FetchedPosts != want.FetchedPosts || got.ProbedKeys != want.ProbedKeys ||
			got.FoundKeys != want.FoundKeys {
			t.Fatalf("query %d: cost metrics diverge: ref %+v, remote %+v", qi, want, got)
		}
	}
}

// TestIngestShuffledChunksMatchBulkConfigure is the order-independence
// property test: feeding a session's chunks in a random permutation
// must materialize the exact shard the bulk fat-client configure path
// builds — proven byte-for-byte, per daemon, over the store export RPCs
// after both clusters run the same build.
func TestIngestShuffledChunksMatchBulkConfigure(t *testing.T) {
	const peers = 3
	col := testCollection(t, 90)
	cfg := testConfig(col, 1)

	// Cluster A: the fat-client path (bulk configure + client-run build).
	trA := transport.NewInProc()
	defer trA.Close()
	serversA := startInProcServers(t, trA, peers, 1)
	cA, err := Dial(Options{Transport: trA, Seed: serversA[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	buildClusterEngine(t, cA, col, cfg)

	// Cluster B: identical member addresses on its own transport (so
	// ring placement is identical), shards delivered as hand-shuffled
	// chunk frames, build coordinated by a daemon.
	trB := transport.NewInProc()
	defer trB.Close()
	serversB := startInProcServers(t, trB, peers, 1)
	cB, err := Dial(Options{Transport: trB, Seed: serversB[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	membersB := cB.Members()
	byAddrB := make(map[string]*Server)
	for _, s := range serversB {
		byAddrB[s.Addr()] = s
	}
	rng := rand.New(rand.NewSource(41))
	for i, m := range membersB {
		srv := byAddrB[m.Addr()]
		src := ShardSource(col, cfg, 3, i, len(membersB))
		gen := &chunkGen{src: src, target: 2 << 10}
		var chunks [][]byte
		var digests []uint64
		for {
			p, ok := gen.next()
			if !ok {
				break
			}
			chunks = append(chunks, p)
			digests = append(digests, chunkDigest(p))
		}
		if len(chunks) < 3 {
			t.Fatalf("shard %d packs into %d chunks — too few to shuffle meaningfully", i, len(chunks))
		}
		begin := ingestBegin{
			Session: 3, Config: cfgJSON,
			TotalDocs: uint64(src.TotalDocs), ShardDocs: uint64(src.ShardDocs),
			VocabSize: uint64(len(src.Vocab)), ChunkBytes: 2 << 10,
		}
		if _, err := srv.handleIngest(encodeIngestBegin(begin)); err != nil {
			t.Fatal(err)
		}
		for _, j := range rng.Perm(len(chunks)) {
			frame := encodeIngestChunk(ingestChunk{Session: 3, Seq: uint64(j), Payload: chunks[j]})
			if _, err := srv.handleIngest(frame); err != nil {
				t.Fatalf("shuffled chunk %d to %s: %v", j, m.Addr(), err)
			}
		}
		commit := ingestCommit{Session: 3, Chunks: uint64(len(chunks)), Digest: sessionDigest(digests)}
		if _, err := srv.handleIngest(encodeIngestCommit(commit)); err != nil {
			t.Fatalf("commit to %s: %v", m.Addr(), err)
		}
	}
	if err := cB.BuildRemote(membersB[0].Addr(), nil); err != nil {
		t.Fatalf("remote build over shuffled ingest: %v", err)
	}

	// Byte identity, daemon by daemon: same key sets, same exported
	// entry blobs.
	invA := core.RemoteInventory{Call: cA.CallService}
	invB := core.RemoteInventory{Call: cB.CallService}
	membersA := cA.Members()
	if len(membersA) != len(membersB) {
		t.Fatalf("membership sizes diverge: %d vs %d", len(membersA), len(membersB))
	}
	total := 0
	for k := range membersA {
		censusA, errA := invA.Census(membersA[k])
		censusB, errB := invB.Census(membersB[k])
		if errA != nil || errB != nil || !reflect.DeepEqual(censusA, censusB) {
			t.Fatalf("daemon %s: censuses diverge (%d vs %d keys, %v, %v)",
				membersA[k].Addr(), len(censusA), len(censusB), errA, errB)
		}
		keys := make([]string, len(censusA))
		for i, c := range censusA {
			keys[i] = c.Key
		}
		itemsA, errA := invA.Export(membersA[k], keys)
		itemsB, errB := invB.Export(membersB[k], keys)
		if errA != nil || errB != nil || !reflect.DeepEqual(itemsA, itemsB) {
			t.Fatalf("daemon %s: exported entries diverge (%v, %v)", membersA[k].Addr(), errA, errB)
		}
		total += len(keys)
	}
	if total == 0 {
		t.Fatal("no keys compared — build produced an empty index")
	}
}

// TestIngestDurableResumeSkipsAckedChunks covers the crash-resume half
// of the resume invariant in-process: a session interrupted after a few
// acked chunks, a daemon restarted from its durable dir, and a resumed
// upload that ships only the missing tail — then commits, builds and
// serves. (The SIGKILL variant over real sockets lives in the TCP e2e.)
func TestIngestDurableResumeSkipsAckedChunks(t *testing.T) {
	const held = 3
	st := ingestResumedAfterRestart(t, held, -1)
	if st.ChunksSkipped != held || st.ChunksSent != st.Chunks-held {
		t.Fatalf("resume re-shipped acked chunks: %+v (want %d skipped)", st, held)
	}
}

// TestIngestResumeReshipsDifferingChunk: a held, uncommitted chunk whose
// bytes differ from the client's regenerated chunk is shipped again —
// and it is the only held chunk that is — so the commit's session digest
// verifies and the build succeeds.
func TestIngestResumeReshipsDifferingChunk(t *testing.T) {
	const held = 3
	st := ingestResumedAfterRestart(t, held, 1)
	if st.ChunksSkipped != held-1 || st.ChunksSent != st.Chunks-held+1 {
		t.Fatalf("resume over a differing held chunk: %+v (want %d skipped)", st, held-1)
	}
}

// ingestResumedAfterRestart hand-feeds a durable daemon a session's begin
// and its first held chunks — chunk wrongSeq (when not -1) with bytes
// that differ from the client's — then "crashes" it (transport yanked,
// durable dir left behind), restarts it from the data dir, resumes the
// upload through Client.Ingest and builds. It returns the resumed
// upload's stats.
func ingestResumedAfterRestart(t *testing.T, held, wrongSeq int) IngestStats {
	t.Helper()
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	dir := t.TempDir()
	const session, target = 9, 2 << 10

	tr := transport.NewInProc()
	srv, err := NewServer(tr, "node-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	d, err := durable.Open(filepath.Join(dir, "n0"), durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.EnableDurability(d); err != nil {
		t.Fatal(err)
	}

	src := ShardSource(col, cfg, session, 0, 1)
	gen := &chunkGen{src: src, target: target}
	var chunks [][]byte
	for {
		p, ok := gen.next()
		if !ok {
			break
		}
		chunks = append(chunks, p)
	}
	if len(chunks) <= held {
		t.Fatalf("shard packs into %d chunks, need > %d", len(chunks), held)
	}
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	begin := ingestBegin{
		Session: session, Config: cfgJSON,
		TotalDocs: uint64(src.TotalDocs), ShardDocs: uint64(src.ShardDocs),
		VocabSize: uint64(len(src.Vocab)), ChunkBytes: target,
	}
	if _, err := srv.handleIngest(encodeIngestBegin(begin)); err != nil {
		t.Fatal(err)
	}
	for j := 0; j < held; j++ {
		payload := chunks[j]
		if j == wrongSeq {
			payload = append([]byte(nil), payload...)
			payload[len(payload)-1] ^= 0xff
		}
		frame := encodeIngestChunk(ingestChunk{Session: session, Seq: uint64(j), Payload: payload})
		if _, err := srv.handleIngest(frame); err != nil {
			t.Fatal(err)
		}
	}
	tr.Close()
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	// Restart from the data dir; the replayed session must report the
	// held chunks at begin and pull only what it lacks.
	tr2 := transport.NewInProc()
	t.Cleanup(func() { tr2.Close() })
	srv2, err := NewServer(tr2, "node-0", 1)
	if err != nil {
		t.Fatal(err)
	}
	re, err := durable.Open(filepath.Join(dir, "n0"), durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv2.EnableDurability(re); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(Options{Transport: tr2, Seed: "node-0", ChunkBytes: target})
	if err != nil {
		t.Fatal(err)
	}
	st, err := c.Ingest("node-0", ShardSource(col, cfg, session, 0, 1))
	if err != nil {
		t.Fatalf("resumed ingest: %v", err)
	}
	if err := c.BuildRemote("node-0", nil); err != nil {
		t.Fatalf("build after resumed ingest: %v", err)
	}
	info, err := FetchInfo(tr2, "node-0")
	if err != nil {
		t.Fatal(err)
	}
	if info.BuildState != "done" {
		t.Fatalf("post-resume build info = %+v", info)
	}
	if keys, _ := srv2.Metrics().Snapshot().Gauge(metricStoreKeys); keys == 0 {
		t.Fatal("post-resume build left the store empty")
	}
	return st
}

// TestIngestCallsPerUpload pins an upload's hdk.ingest cost: a fresh
// K-chunk upload is exactly K+2 calls (begin, K chunks, commit), a
// re-run of the committed session is 2 (begin, commit), and a configure
// is one begin per member.
func TestIngestCallsPerUpload(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 2, 1)
	sc := &serviceCounter{Transport: tr}
	sc.take()
	c, err := Dial(Options{Transport: sc, Seed: servers[0].Addr(), ChunkBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	addr := servers[1].Addr()
	ingestCalls := func() int {
		calls, _ := sc.take()
		total := 0
		for _, n := range calls[SvcIngest] {
			total += n
		}
		return total
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	if got := ingestCalls(); got != 2 {
		t.Fatalf("configure of 2 members: %d hdk.ingest calls, want 2", got)
	}
	st, err := c.Ingest(addr, ShardSource(col, cfg, 1, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks < 3 || st.ChunksSent != st.Chunks {
		t.Fatalf("fresh upload: %+v", st)
	}
	if got := ingestCalls(); got != st.Chunks+2 {
		t.Fatalf("fresh %d-chunk upload: %d hdk.ingest calls, want %d", st.Chunks, got, st.Chunks+2)
	}
	if st, err = c.Ingest(addr, ShardSource(col, cfg, 1, 0, 1)); err != nil || st.ChunksSent != 0 {
		t.Fatalf("re-run of the committed session: %+v, %v", st, err)
	}
	if got := ingestCalls(); got != 2 {
		t.Fatalf("re-run of the committed session: %d hdk.ingest calls, want 2", got)
	}
}

// chunkTap records the ids of the documents packed into every docs
// chunk an hdk.ingest call ships, as the request leaves the client.
type chunkTap struct {
	transport.Transport
	shipped []corpus.DocID
}

func (ct *chunkTap) Call(addr string, req []byte) ([]byte, error) {
	if svc, payload, err := overlay.DecodeEnvelope(req); err == nil && svc == SvcIngest &&
		len(payload) > 0 && payload[0] == ingestFrameChunk {
		if c, err := decodeIngestChunk(payload[1:]); err == nil && len(c.Payload) > 0 && c.Payload[0] == chunkKindDocs {
			docs, err := decodeDocsChunk(c.Payload[1:], math.MaxUint64, nil)
			if err != nil {
				return nil, err
			}
			for _, d := range docs {
				ct.shipped = append(ct.shipped, d.ID)
			}
		}
	}
	return ct.Transport.Call(addr, req)
}

// TestIngestHoldsOneChunk pins the thin client's footprint: whenever a
// chunk is acked, the shard iterator has yielded exactly the documents
// packed into the chunks shipped so far, and none ahead — Ingest never
// holds more than the chunk it is building.
func TestIngestHoldsOneChunk(t *testing.T) {
	col := testCollection(t, 1500)
	cfg := testConfig(col, 1)
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, 1, 1)
	tap := &chunkTap{Transport: tr}
	c, err := Dial(Options{Transport: tap, Seed: servers[0].Addr(), ChunkBytes: 4 << 10})
	if err != nil {
		t.Fatal(err)
	}
	src := ShardSource(col, cfg, 1, 0, 1)
	var yielded []corpus.DocID
	next := src.Docs
	src.Docs = func() (corpus.Document, bool) {
		d, ok := next()
		if ok {
			yielded = append(yielded, d.ID)
		}
		return d, ok
	}
	docChunks := 0
	src.OnChunk = func(int) error {
		if !reflect.DeepEqual(yielded, tap.shipped) {
			return fmt.Errorf("iterator yielded %d docs, shipped chunks hold %d", len(yielded), len(tap.shipped))
		}
		if len(yielded) > 0 {
			docChunks++
		}
		return nil
	}
	st, err := c.Ingest(servers[0].Addr(), src)
	if err != nil {
		t.Fatal(err)
	}
	if st.Chunks < 20 || docChunks < 20 {
		t.Fatalf("%d chunks, %d of them documents: want at least 20 of each", st.Chunks, docChunks)
	}
	if len(tap.shipped) != col.M() {
		t.Fatalf("shipped %d docs, want %d", len(tap.shipped), col.M())
	}
}

// TestConfigureLeavesSessionInPlace: a configure commits its own
// shardless session, so that session takes no chunk; re-sent with the
// same configuration while a streamed session is in progress, it
// answers OK and leaves that session's held chunks in place for the
// upload's resume.
func TestConfigureLeavesSessionInPlace(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	tr := transport.NewInProc()
	defer tr.Close()
	srv := startInProcServers(t, tr, 1, 1)[0]
	c, err := Dial(Options{Transport: tr, Seed: srv.Addr(), ChunkBytes: 2 << 10})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatal(err)
	}
	stray := encodeIngestChunk(ingestChunk{Session: 0, Seq: 0, Payload: []byte{chunkKindDocs}})
	if _, err := srv.handleIngest(stray); err == nil {
		t.Fatal("the configure's session took a chunk after it committed")
	}
	const held = 2
	src := ShardSource(col, cfg, 5, 0, 1)
	src.OnChunk = func(acked int) error {
		if acked == held {
			return errors.New("interrupted")
		}
		return nil
	}
	if _, err := c.Ingest(srv.Addr(), src); err == nil {
		t.Fatal("interrupted upload reported success")
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatalf("configure during an upload: %v", err)
	}
	st, err := c.Ingest(srv.Addr(), ShardSource(col, cfg, 5, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if st.ChunksSkipped != held || st.ChunksSent != st.Chunks-held {
		t.Fatalf("upload resumed after a configure: %+v (want %d skipped)", st, held)
	}
}

// TestConfigureReplaysLegacyRecordPair: a data dir holding the two
// records a configure used to log — a shardless ingest.begin for session
// 0 and its zero-chunk ingest.commit — replays into a configured daemon
// that accepts the same configuration and refuses a different one.
func TestConfigureReplaysLegacyRecordPair(t *testing.T) {
	cfg := testConfig(testCollection(t, 40), 1)
	cfgJSON, err := json.Marshal(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	d, err := durable.Open(dir, durable.Options{Fsync: durable.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	begin := encodeIngestBegin(ingestBegin{Session: 0, Config: cfgJSON})
	commit := encodeIngestCommit(ingestCommit{Session: 0, Chunks: 0, Digest: sessionDigest(nil)})
	if err := d.Append(durIngestBegin, begin[1:]); err != nil {
		t.Fatal(err)
	}
	if err := d.Append(durIngestCommit, commit[1:]); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}

	tr := transport.NewInProc()
	defer tr.Close()
	srv := newDurableServer(t, tr, "node-0", dir, 1)
	if srv.Store() == nil || srv.Store().Config() != cfg {
		t.Fatal("daemon restarted from a configure record pair is not configured")
	}
	c, err := Dial(Options{Transport: tr, Seed: srv.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Configure(cfg); err != nil {
		t.Fatalf("re-sending the replayed configuration: %v", err)
	}
	other := cfg
	other.DFMax++
	if err := c.Configure(other); !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("divergent configure after replay: err = %v, want ErrConfigMismatch", err)
	}
}

// TestConfigureStillDegenerateIngest pins the consolidation: the
// legacy bulk configure path is now a zero-chunk ingest session, so a
// durable daemon's snapshot replays it through the same records and a
// matching re-configure stays idempotent.
func TestConfigureStillDegenerateIngest(t *testing.T) {
	col := testCollection(t, 40)
	cfg := testConfig(col, 1)
	tr := transport.NewInProc()
	defer tr.Close()
	if _, err := NewServer(tr, "node-0", 1); err != nil {
		t.Fatal(err)
	}
	c, err := Dial(Options{Transport: tr, Seed: "node-0"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := c.Configure(cfg); err != nil {
			t.Fatalf("configure pass %d: %v", i, err)
		}
	}
	cfg2 := cfg
	cfg2.Window++
	err = c.Configure(cfg2)
	if !errors.Is(err, ErrConfigMismatch) {
		t.Fatalf("divergent re-configure: err = %v, want ErrConfigMismatch", err)
	}
	if !strings.Contains(err.Error(), "node-0") {
		t.Fatalf("typed configure error does not name the daemon: %v", err)
	}
}
