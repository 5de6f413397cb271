package core

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/corpus"
	"repro/internal/durable"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/replica"
	"repro/internal/transport"
)

// handlerMember is a minimal overlay.Member capturing service handlers,
// so store-server tests can invoke the exact registered handler bytes
// without a fabric.
type handlerMember struct {
	addr     string
	services map[string]transport.Handler
}

func newHandlerMember(addr string) *handlerMember {
	return &handlerMember{addr: addr, services: make(map[string]transport.Handler)}
}

func (m *handlerMember) ID() overlay.ID { return overlay.HashNode(m.addr) }
func (m *handlerMember) Addr() string   { return m.addr }
func (m *handlerMember) Handle(service string, h transport.Handler) {
	m.services[service] = h
}

func (m *handlerMember) call(t *testing.T, service string, req []byte) []byte {
	t.Helper()
	h, ok := m.services[service]
	if !ok {
		t.Fatalf("no handler for %s", service)
	}
	resp, err := h(req)
	if err != nil {
		t.Fatalf("%s: %v", service, err)
	}
	return resp
}

func storeCfg() Config {
	cfg := DefaultConfig(rank.CollectionStats{NumDocs: 200, AvgDocLen: 50})
	cfg.DFMax = 3
	return cfg
}

// exportState dumps a store's full content as (key -> canonical blob).
func exportState(t *testing.T, s *hdkStore) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	if err := s.exportAll(func(cell []byte) error {
		key, blob, err := decodeEntryRecord(cell)
		out[key] = append([]byte(nil), blob...) // the cell buffer is reused
		return err
	}); err != nil {
		t.Fatal(err)
	}
	return out
}

func assertSameState(t *testing.T, got, want map[string][]byte) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("store holds %d keys, want %d", len(got), len(want))
	}
	for key, blob := range want {
		if !bytes.Equal(got[key], blob) {
			t.Fatalf("key %q: restored blob differs from original\ngot:  %x\nwant: %x", key, got[key], blob)
		}
	}
}

// applyRandomOps drives a persistent StoreServer through n pseudo-random
// mutation RPCs (insert batches, classification sweeps, repair imports)
// via the registered handlers — the exact byte path the daemon serves —
// and returns the raw (kind, payload) op sequence it executed.
func applyRandomOps(t *testing.T, m *handlerMember, donor *hdkStore, rng *rand.Rand, n int) [][2]string {
	t.Helper()
	var ops [][2]string
	vocab := []string{"ant", "bee", "cat", "dog", "elk", "fox", "gnu", "hen"}
	nextDoc := uint32(1)
	for i := 0; i < n; i++ {
		switch rng.Intn(4) {
		case 0, 1: // insert batch
			var batch []postings.KeyedMessage
			for b := 0; b < 1+rng.Intn(3); b++ {
				key := vocab[rng.Intn(len(vocab))]
				size := 1
				if rng.Intn(2) == 1 {
					key = key + "\x1f" + vocab[rng.Intn(len(vocab))]
					size = 2
				}
				var list postings.List
				for p := 0; p < 1+rng.Intn(3); p++ {
					list = append(list, postings.Posting{Doc: corpus.DocID(nextDoc), Score: float32(rng.Intn(10)) / 2})
					nextDoc++
				}
				batch = append(batch, postings.KeyedMessage{Key: key, Aux: uint64(size), List: list})
			}
			req := encodeInsertReq(nil, fmt.Sprintf("peer-%d", rng.Intn(3)), batch)
			m.call(t, SvcInsert, req)
			ops = append(ops, [2]string{DurableOpInsert, string(req)})
		case 2: // classification sweep
			req := EncodeClassifyReq(1 + rng.Intn(2))
			m.call(t, SvcClassify, req)
			ops = append(ops, [2]string{DurableOpClassify, string(req)})
		case 3: // repair import from the donor store
			keys := donor.keyList()
			if len(keys) == 0 {
				continue
			}
			key := keys[rng.Intn(len(keys))]
			blob, _ := donor.exportEntry(key)
			req := replica.EncodeBatch(nil, []replica.Item{{Key: "imported\x1f" + key, Blob: blob}})
			m.call(t, replica.Service, req)
			ops = append(ops, [2]string{DurableOpRepair, string(req)})
		}
	}
	return ops
}

// TestStoreServerPersistenceRoundTrip drives a persistent StoreServer
// through a pseudo-random mutation sequence — including log compactions
// mid-sequence — then reopens the data directory into a FRESH StoreServer
// and requires the restored store to be byte-identical: every key, every
// posting, every df, classification, NDK truncation and contributor set.
func TestStoreServerPersistenceRoundTrip(t *testing.T) {
	for _, compact := range []struct {
		name string
		opts durable.Options
	}{
		{"log-only", durable.Options{Fsync: durable.SyncNever, CompactBytes: -1}},
		{"compacting", durable.Options{Fsync: durable.SyncNever, CompactBytes: 256}},
	} {
		t.Run(compact.name, func(t *testing.T) {
			dir := t.TempDir()
			cfg := storeCfg()

			d, err := durable.Open(dir, compact.opts)
			if err != nil {
				t.Fatal(err)
			}
			srv, err := NewStoreServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			srv.EnablePersistence(d, nil)
			m := newHandlerMember("node-a")
			srv.Attach(m)

			// A donor store supplies realistic repair-import blobs.
			donor := newHDKStore(&cfg)
			donor.insert("donor\x1fkey", 2, postings.List{{Doc: 10, Score: 1}, {Doc: 20, Score: 2}}, "peer-d")
			donor.classifySweep(2)

			rng := rand.New(rand.NewSource(42))
			applyRandomOps(t, m, donor, rng, 60)
			want := exportState(t, srv.store)
			if len(want) == 0 {
				t.Fatal("mutation sequence produced an empty store — test proves nothing")
			}
			if err := d.Close(); err != nil {
				t.Fatal(err)
			}
			if compact.name == "compacting" && func() bool {
				re, err := durable.Open(dir, compact.opts)
				if err != nil {
					t.Fatal(err)
				}
				defer re.Close()
				return re.Generation() == 0
			}() {
				t.Fatal("small threshold never triggered a compaction — test proves nothing")
			}

			// Warm restart: fresh durable store, fresh StoreServer, replay.
			re, err := durable.Open(dir, compact.opts)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			srv2, err := NewStoreServer(cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range re.Snapshot() {
				if err := srv2.ReplayRecord(rec.Kind, rec.Payload); err != nil {
					t.Fatalf("replay snapshot record: %v", err)
				}
			}
			for _, rec := range re.Ops() {
				if err := srv2.ReplayRecord(rec.Kind, rec.Payload); err != nil {
					t.Fatalf("replay op: %v", err)
				}
			}
			assertSameState(t, exportState(t, srv2.store), want)
		})
	}
}

// TestStoreServerTornLogRecovery SIGKILL-simulates a torn final log
// record: the store must come back exactly at the last intact op.
func TestStoreServerTornLogRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := storeCfg()
	opts := durable.Options{Fsync: durable.SyncNever, CompactBytes: -1}

	d, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewStoreServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.EnablePersistence(d, nil)
	m := newHandlerMember("node-a")
	srv.Attach(m)

	donor := newHDKStore(&cfg)
	rng := rand.New(rand.NewSource(7))
	applyRandomOps(t, m, donor, rng, 20)
	prefixState := exportState(t, srv.store)
	sizeBefore := d.LogBytes()
	// One more op whose log record we will tear.
	m.call(t, SvcInsert, encodeInsertReq(nil, "peer-z",
		[]postings.KeyedMessage{{Key: "torn", Aux: 1, List: postings.List{{Doc: 9999, Score: 1}}}}))
	d.Close()

	// Tear the final record in half.
	logs, err := filepath.Glob(filepath.Join(dir, "oplog-*"))
	if err != nil || len(logs) != 1 {
		t.Fatalf("oplog glob: %v %v", logs, err)
	}
	raw, err := os.ReadFile(logs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(logs[0], raw[:sizeBefore+(int64(len(raw))-sizeBefore)/2], 0o644); err != nil {
		t.Fatal(err)
	}

	re, err := durable.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if re.TruncatedOps() == 0 {
		t.Fatal("recovery did not drop the torn record")
	}
	srv2, err := NewStoreServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range re.Ops() {
		if err := srv2.ReplayRecord(rec.Kind, rec.Payload); err != nil {
			t.Fatal(err)
		}
	}
	got := exportState(t, srv2.store)
	if _, leaked := got["torn"]; leaked {
		t.Fatal("torn insert leaked into the recovered store")
	}
	assertSameState(t, got, prefixState)
}

// TestImportEntryCorruptBlobBounds is the allocation-bomb regression: a
// corrupt blob whose declared contributor count exceeds the bytes that
// could possibly encode them must be rejected up front (each contributor
// costs at least one byte), so a few bytes can no longer buy a
// megabyte-scale map pre-allocation.
func TestImportEntryCorruptBlobBounds(t *testing.T) {
	cfg := storeCfg()
	store := newHDKStore(&cfg)

	// A legitimate blob, as a baseline.
	donor := newHDKStore(&cfg)
	donor.insert("k", 1, postings.List{{Doc: 1, Score: 1}}, "peer-0")
	valid, _ := donor.exportEntry("k")
	if ok, err := store.importEntry("k", valid); err != nil || !ok {
		t.Fatalf("valid blob rejected: ok=%v err=%v", ok, err)
	}

	// Forge a small blob declaring an enormous contributor count: size=1,
	// df=1, flags=0, then nc as a 5-byte uvarint (~256M) with only a few
	// bytes behind it. The old bound (nc <= len(blob)) required a 64 MiB
	// frame to reach 64M contributors; the count here is bounded by the
	// REMAINING bytes, so this must fail fast without allocating.
	bomb := binary.AppendUvarint(nil, 1) // size
	bomb = binary.AppendUvarint(bomb, 1) // df
	bomb = append(bomb, 0)               // flags
	bomb = binary.AppendUvarint(bomb, 1<<28)
	bomb = append(bomb, 0, 0, 0) // nowhere near 2^28 contributors' worth of bytes
	if _, err := store.importEntry("bomb", bomb); !errors.Is(err, errCorruptRPC) {
		t.Fatalf("allocation-bomb blob: got %v, want errCorruptRPC", err)
	}

	// Truncations of a valid blob error out, never panic.
	for cut := 0; cut < len(valid); cut++ {
		if _, err := store.importEntry("cut", valid[:cut]); err == nil {
			t.Fatalf("truncated blob (%d bytes) accepted", cut)
		}
	}
	// Declared count barely above what the remaining bytes can hold.
	tight := binary.AppendUvarint(nil, 1)
	tight = binary.AppendUvarint(tight, 1)
	tight = append(tight, 0)
	tight = binary.AppendUvarint(tight, 4) // 4 contributors...
	tight = append(tight, 0, 0, 0)         // ...but only 3 bytes remain
	if _, err := store.importEntry("tight", tight); !errors.Is(err, errCorruptRPC) {
		t.Fatalf("over-declared contributor count: got %v, want errCorruptRPC", err)
	}
}

// TestEqualDFDivergenceHealed constructs the exact churn interleaving of
// the fingerprint bug: two replicas of one key whose DISJOINT insert
// batches sum to the same df (replica A saw only p1's 3 postings,
// replica B only p2's 3). Under a df-only fingerprint the sweep trusted
// both; the content checksum must flag them as divergent, and repair
// must converge every copy onto one deterministic survivor.
func TestEqualDFDivergenceHealed(t *testing.T) {
	net := overlay.NewNetwork(transport.NewInProc())
	for i := 0; i < 2; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	cfg := storeCfg()
	cfg.ReplicationFactor = 2
	eng, err := NewEngine(net, cfg, []string{"w0", "w1"}, []int{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	members := net.Members()
	storeA := eng.stores[members[0].ID()].store
	storeB := eng.stores[members[1].ID()].store

	// The interleaving: each replica received only one peer's batch.
	const key = "w0"
	listA := postings.List{{Doc: 1, Score: 1}, {Doc: 2, Score: 1}, {Doc: 3, Score: 1}}
	listB := postings.List{{Doc: 4, Score: 2}, {Doc: 5, Score: 2}, {Doc: 6, Score: 2}}
	storeA.insert(key, 1, listA, "p1")
	storeB.insert(key, 1, listB, "p2")
	storeA.classifySweep(1)
	storeB.classifySweep(1)

	fpA, _ := storeA.entryFingerprint(key)
	fpB, _ := storeB.entryFingerprint(key)
	if fpA.Version != fpB.Version {
		t.Fatalf("setup broken: df %d vs %d, want equal", fpA.Version, fpB.Version)
	}
	if fpA.Sum == fpB.Sum {
		t.Fatal("divergent copies share a checksum — fingerprint cannot see the divergence")
	}

	audit := mustAudit(t, eng)
	if audit.UnderReplicated == 0 {
		t.Fatal("audit trusts two divergent equal-df copies (the df-only fingerprint bug)")
	}
	if _, err := eng.RepairReplicas(); err != nil {
		t.Fatal(err)
	}
	if audit = mustAudit(t, eng); audit.UnderReplicated != 0 {
		t.Fatalf("divergence not healed: %+v", audit)
	}
	blobA, okA := storeA.exportEntry(key)
	blobB, okB := storeB.exportEntry(key)
	if !okA || !okB || !bytes.Equal(blobA, blobB) {
		t.Fatalf("replicas still differ after repair:\nA: %x\nB: %x", blobA, blobB)
	}
	// The survivor is the deterministic winner: the higher checksum.
	want := fpA
	if fpB.Better(fpA) {
		want = fpB
	}
	if got, _ := storeA.entryFingerprint(key); got != want {
		t.Fatalf("healed copy %+v is not the deterministic winner %+v", got, want)
	}
}
