package core

import (
	"encoding/binary"
	"fmt"
	"slices"
	"sort"
	"sync"

	"repro/internal/durable"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/replica"
	"repro/internal/transport"
	"repro/internal/wire"
)

// This file hosts the server side of the HDK index as a standalone unit:
// every RPC service an index node answers, registered onto any
// overlay.Member. The in-process Engine hosts each of its stores as a
// StoreServer too, so a store served by the hdknode daemon in another OS
// process and a store living inside the Engine execute literally the same
// handler code — the cross-process deployment cannot drift from the
// simulated one.

// Exported index service names. The multi-process cluster client invokes
// these on daemon members; the Engine uses them for stores it does not
// host locally.
const (
	// SvcClassify runs one classification sweep (request: uvarint key
	// size) and returns the newly non-discriminative keys with their
	// contributor addresses (the notify map).
	SvcClassify = "hdk.classify"
	// SvcCensus returns the store's census (request: empty): every
	// resident key with its replica fingerprint, keys ascending.
	SvcCensus = "hdk.census"
	// SvcExport returns the repair snapshots of resident entries
	// (request: a key list) as a replica repair batch.
	SvcExport = "hdk.export"
	// SvcStats returns resident posting/key counts per key size.
	SvcStats = "hdk.stats"
)

// Durable record kinds the store server logs and replays. The "op"
// kinds carry the raw mutation RPC payload — replay re-executes the
// exact handler logic, so a replayed store is byte-identical to the one
// that logged the ops; DurableEntry carries a (key, canonical entry
// export) snapshot cell.
const (
	DurableOpInsert   = "insert"
	DurableOpClassify = "classify"
	DurableOpRepair   = "repair"
	DurableEntry      = "entry"
)

// StoreServer hosts one overlay member's fraction of the global HDK
// index — the daemon-side building block of the multi-process
// deployment (cmd/hdknode creates one per process and attaches it to its
// cluster membership identity), and the host of every store an
// in-process Engine keeps. With persistence
// enabled (EnablePersistence) every index mutation is written through to
// a durable op log and periodically compacted into a full-store
// snapshot, so a restarted process can rebuild its exact store fraction
// from disk instead of re-running the distributed build.
type StoreServer struct {
	cfg   Config
	store *hdkStore

	// Persistence state. pmu orders mutations+appends (read side)
	// against compaction (write side): a mutation is fully in either the
	// pre-compaction log or the snapshot, never both and never neither.
	pmu       sync.RWMutex
	dur       *durable.Store
	durHeader func(emit func(kind string, payload []byte) error) error

	// onMutate, when set, runs after every successfully served mutation
	// (insert/classify/repair) — the write-through hook the cluster
	// daemon uses to invalidate its query-result cache. Set before
	// Attach; replayed durable records do not fire it (recovery precedes
	// serving, so there is nothing cached to invalidate).
	onMutate func()
}

// NewStoreServer validates the configuration and creates an empty store.
// The configuration must equal the building client's engine configuration
// (the cluster control plane ships it before the build), since the store
// applies DFmax classification and idf scoring server-side.
func NewStoreServer(cfg Config) (*StoreServer, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return newStoreServer(cfg), nil
}

// newStoreServer creates an empty store under an already validated
// configuration.
func newStoreServer(cfg Config) *StoreServer {
	s := &StoreServer{cfg: cfg}
	s.store = newHDKStore(&s.cfg)
	return s
}

// EnablePersistence attaches a durable store: every subsequent mutation
// served through Attach'd handlers is appended to its op log, and the
// log is compacted into a fresh full-store snapshot when it crosses the
// durable store's threshold. header, when non-nil, contributes leading
// snapshot records (the cluster daemon persists its configuration
// payload this way, so one file sequence restores the whole process
// state). Call before Attach and before serving traffic.
func (s *StoreServer) EnablePersistence(d *durable.Store, header func(emit func(kind string, payload []byte) error) error) {
	s.pmu.Lock()
	s.dur = d
	s.durHeader = header
	s.pmu.Unlock()
}

// OnMutation registers a hook invoked after every successfully served
// mutating RPC (insert, classify sweep, repair import) — regardless of
// whether persistence is enabled. The cluster daemon hangs its
// query-result cache invalidation here, so a coordinator can never
// serve a cached answer across an index change it has itself applied.
// Call before Attach; not safe to change while serving.
func (s *StoreServer) OnMutation(fn func()) { s.onMutate = fn }

// ReplayRecord applies one recovered durable record: a snapshot entry
// cell installs the entry verbatim; an op record re-executes the logged
// mutation RPC. Nothing is re-logged — the records already are the log.
func (s *StoreServer) ReplayRecord(kind string, payload []byte) error {
	switch kind {
	case DurableEntry:
		key, blob, err := decodeEntryRecord(payload)
		if err != nil {
			return err
		}
		return s.store.restoreEntry(key, blob)
	case DurableOpInsert:
		_, err := storeInsert(s.store, payload)
		return err
	case DurableOpClassify:
		_, err := storeClassify(s.store, payload)
		return err
	case DurableOpRepair:
		_, err := storeRepair(s.store, payload)
		return err
	}
	return fmt.Errorf("core: unknown durable record kind %q", kind)
}

// CompactNow forces the op log into a fresh snapshot (the
// graceful-shutdown path: a warm restart then replays zero ops). A no-op
// without persistence.
func (s *StoreServer) CompactNow() error {
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if s.dur == nil {
		return nil
	}
	return s.compactLocked()
}

// maybeCompact folds the log into a snapshot once it crosses the
// threshold. Called after appends, outside the read lock.
func (s *StoreServer) maybeCompact() {
	if s.dur == nil || !s.dur.ShouldCompact() {
		return
	}
	s.pmu.Lock()
	defer s.pmu.Unlock()
	if !s.dur.ShouldCompact() { // raced with another compaction
		return
	}
	// A failed compaction is non-fatal: the op log remains authoritative
	// and keeps growing, and the next threshold crossing retries.
	s.compactLocked()
}

func (s *StoreServer) compactLocked() error {
	return s.dur.Compact(func(emit func(kind string, payload []byte) error) error {
		if s.durHeader != nil {
			if err := s.durHeader(emit); err != nil {
				return err
			}
		}
		return s.store.exportAll(func(cell []byte) error { return emit(DurableEntry, cell) })
	})
}

// runLogged executes one mutating handler body and, on success, appends
// its raw request to the durable op log under the read side of pmu — so
// a concurrent compaction can never observe a mutation without its log
// record or vice versa. A log-append failure fails the RPC loudly: the
// in-memory store is then ahead of disk, and the operator must treat the
// data directory as stale (restart the daemon) rather than trust it.
func (s *StoreServer) runLogged(kind string, req []byte, body func([]byte) ([]byte, error)) ([]byte, error) {
	s.pmu.RLock()
	resp, err := body(req)
	if err == nil && s.dur != nil {
		if lerr := s.dur.Append(kind, req); lerr != nil {
			s.pmu.RUnlock()
			return nil, fmt.Errorf("core: durable append after %s: %w", kind, lerr)
		}
	}
	s.pmu.RUnlock()
	if err == nil {
		if s.onMutate != nil {
			s.onMutate()
		}
		s.maybeCompact()
	}
	return resp, err
}

// Config returns the configuration the store classifies and scores with.
func (s *StoreServer) Config() Config { return s.cfg }

// Populated reports whether the store holds any index entries — i.e. a
// build already ran against it.
func (s *StoreServer) Populated() bool { return s.store.keyCount() > 0 }

// KeyCount returns the number of resident keys.
func (s *StoreServer) KeyCount() int { return s.store.keyCount() }

// StoredBySize returns resident posting and key counts per key size.
func (s *StoreServer) StoredBySize() (posts, keys []int) {
	return s.store.storedBySize(MaxKeySize)
}

// storeInsert is the hdk.insert handler body. The response reports, for
// keys already classified, their global status: new contributors of
// existing NDKs must learn the classification to drive their expansions.
func storeInsert(store *hdkStore, req []byte) ([]byte, error) {
	contributor, batch, err := decodeInsertReq(req)
	if err != nil {
		return nil, err
	}
	return postings.EncodeKeyedBatch(nil, store.insertBatch(contributor, batch)), nil
}

// storeClassify is the hdk.classify handler body.
func storeClassify(store *hdkStore, req []byte) ([]byte, error) {
	r := wire.NewReader(req)
	size := r.Uvarint()
	if !r.Done() || size < 1 || size > MaxKeySize {
		return nil, errCorruptRPC
	}
	return encodeNotifyMap(store.classifySweep(int(size))), nil
}

// storeRepair is the replica.repair handler body.
func storeRepair(store *hdkStore, req []byte) ([]byte, error) {
	items, err := replica.DecodeBatch(req)
	if err != nil {
		return nil, err
	}
	for _, it := range items {
		if _, err := store.importEntry(it.Key, it.Blob); err != nil {
			return nil, fmt.Errorf("core: repair import %q: %w", it.Key, err)
		}
	}
	return nil, nil
}

// Attach registers the full index-node RPC surface for the store on an
// overlay member. Every host runs it — the daemon's StoreServer and each
// store an in-process Engine hosts — so both execute the same handler
// code. The three mutating services (insert, classify, repair) run
// through runLogged, which writes them through to the durable log when
// persistence is enabled; reads never touch the log.
func (s *StoreServer) Attach(node overlay.Member) {
	store := s.store
	logged := func(kind string, body func(*hdkStore, []byte) ([]byte, error)) transport.Handler {
		return func(req []byte) ([]byte, error) {
			return s.runLogged(kind, req, func(r []byte) ([]byte, error) { return body(store, r) })
		}
	}
	node.Handle(SvcInsert, logged(DurableOpInsert, storeInsert))
	node.Handle(SvcClassify, logged(DurableOpClassify, storeClassify))
	node.Handle(replica.Service, logged(DurableOpRepair, storeRepair))
	node.Handle(SvcFetchBatch, func(req []byte) ([]byte, error) {
		keys, err := decodeFetchBatchReq(req)
		if err != nil {
			return nil, err
		}
		return store.fetchBatchWire(keys), nil
	})
	node.Handle(SvcCensus, func(req []byte) ([]byte, error) {
		if len(req) != 0 {
			return nil, errCorruptRPC
		}
		return appendCensus(nil, store.census()), nil
	})
	node.Handle(SvcExport, func(req []byte) ([]byte, error) {
		keys, err := postings.DecodeKeyList(req)
		if err != nil {
			return nil, err
		}
		items, err := store.exportEntries(keys)
		if err != nil {
			return nil, err
		}
		return replica.EncodeBatch(nil, items), nil
	})
	node.Handle(SvcStats, func(req []byte) ([]byte, error) {
		posts, keys := store.storedBySize(MaxKeySize)
		buf := binary.AppendUvarint(nil, uint64(MaxKeySize))
		for _, v := range posts {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		for _, v := range keys {
			buf = binary.AppendUvarint(buf, uint64(v))
		}
		return buf, nil
	})
}

// appendEntryRecord appends a durable snapshot cell to buf: uvarint key
// length, key, canonical entry export blob.
func appendEntryRecord(buf []byte, key string, e *entry) []byte {
	return appendEntryExport(wire.AppendString(buf, key), e)
}

// decodeEntryRecord splits a durable snapshot cell back into key + blob.
func decodeEntryRecord(payload []byte) (string, []byte, error) {
	r := wire.NewReader(payload)
	key := r.String(r.Uvarint())
	blob := r.Rest()
	if r.Err() != nil {
		return "", nil, errCorruptRPC
	}
	return key, blob, nil
}

// RemoteInventory implements replica.Inventory over the index inventory
// RPCs (SvcCensus/SvcExport) through any service caller — the one
// implementation, shared by the engine's repair sweep (in-process stores
// answer the same services over the in-process transport) and the
// cluster client's engine-free Repairer. An unreachable daemon or a
// garbled answer is an error, never a missing copy.
type RemoteInventory struct {
	Call func(addr, service string, req []byte) ([]byte, error)
}

// Census implements replica.Inventory.
func (ri RemoteInventory) Census(m overlay.Member) ([]replica.Copy, error) {
	raw, err := ri.Call(m.Addr(), SvcCensus, nil)
	if err != nil {
		return nil, err
	}
	return DecodeCensus(raw)
}

// Export implements replica.Inventory: one SvcExport call for all keys.
func (ri RemoteInventory) Export(m overlay.Member, keys []string) ([]replica.Item, error) {
	raw, err := ri.Call(m.Addr(), SvcExport, postings.EncodeKeyList(nil, keys))
	if err != nil {
		return nil, err
	}
	return replica.DecodeBatch(raw)
}

var _ replica.Inventory = RemoteInventory{}

// appendCensus appends a SvcCensus response: a count, then per copy the
// length-prefixed key, the uvarint version and the 8-byte little-endian
// checksum, keys strictly ascending.
func appendCensus(buf []byte, copies []replica.Copy) []byte {
	need := postings.UvarintSize(uint64(len(copies)))
	for _, c := range copies {
		need += postings.UvarintSize(uint64(len(c.Key))) + len(c.Key) + postings.UvarintSize(uint64(c.FP.Version)) + 8
	}
	buf = slices.Grow(buf, need)
	buf = binary.AppendUvarint(buf, uint64(len(copies)))
	for _, c := range copies {
		buf = wire.AppendString(buf, c.Key)
		buf = binary.AppendUvarint(buf, uint64(c.FP.Version))
		buf = binary.LittleEndian.AppendUint64(buf, c.FP.Sum)
	}
	return buf
}

// DecodeCensus parses a SvcCensus response. It accepts only what
// appendCensus writes — keys out of strictly ascending order are
// rejected — so an accepted census re-encodes to the same bytes. The
// keys share one string copy of the input.
func DecodeCensus(buf []byte) ([]replica.Copy, error) {
	r := wire.NewReader(buf)
	out := make([]replica.Copy, r.Count(10)) // a key prefix, a version and an 8-byte checksum
	r.Share()
	for i := range out {
		key := r.String(r.Uvarint())
		out[i] = replica.Copy{Key: key, FP: replica.Fingerprint{Version: int(r.Uvarint()), Sum: r.Uint64LE()}}
		if i > 0 && key <= out[i-1].Key {
			r.Fail()
		}
	}
	if !r.Done() {
		return nil, errCorruptRPC
	}
	return out, nil
}

// EncodeClassifyReq builds a SvcClassify request for one key size.
func EncodeClassifyReq(size int) []byte {
	return binary.AppendUvarint(nil, uint64(size))
}

// encodeNotifyMap serializes a classify sweep's notify map (key →
// contributor addresses) with keys in sorted order, so the notification
// schedule is deterministic regardless of which process swept the store.
func encodeNotifyMap(notify map[string][]string) []byte {
	keys := make([]string, 0, len(notify))
	for k := range notify {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	buf := binary.AppendUvarint(nil, uint64(len(keys)))
	for _, k := range keys {
		buf = wire.AppendString(buf, k)
		addrs := notify[k]
		buf = binary.AppendUvarint(buf, uint64(len(addrs)))
		for _, a := range addrs {
			buf = wire.AppendString(buf, a)
		}
	}
	return buf
}

// DecodeNotifyMap parses a SvcClassify response.
func DecodeNotifyMap(buf []byte) (map[string][]string, error) {
	r := wire.NewReader(buf)
	n := r.Count(2) // a key's length prefix and its address count
	out := make(map[string][]string, n)
	for i := 0; i < n; i++ {
		key := r.String(r.Uvarint())
		addrs := make([]string, r.Count(1))
		for j := range addrs {
			addrs[j] = r.String(r.Uvarint())
		}
		out[key] = addrs
	}
	if !r.Done() {
		return nil, errCorruptRPC
	}
	return out, nil
}

// StoreStats is one index node's resident footprint, as answered by
// SvcStats.
type StoreStats struct {
	PostsBySize [MaxKeySize + 1]int
	KeysBySize  [MaxKeySize + 1]int
}

// PostsTotal sums resident postings across key sizes.
func (s StoreStats) PostsTotal() int {
	t := 0
	for _, v := range s.PostsBySize {
		t += v
	}
	return t
}

// KeysTotal sums resident keys across key sizes.
func (s StoreStats) KeysTotal() int {
	t := 0
	for _, v := range s.KeysBySize {
		t += v
	}
	return t
}

// DecodeStoreStats parses a SvcStats response.
func DecodeStoreStats(resp []byte) (StoreStats, error) {
	var st StoreStats
	r := wire.NewReader(resp)
	if r.Uvarint() != MaxKeySize {
		return st, errCorruptRPC
	}
	for i := range st.PostsBySize {
		st.PostsBySize[i] = int(r.Uvarint())
	}
	for i := range st.KeysBySize {
		st.KeysBySize[i] = int(r.Uvarint())
	}
	if !r.Done() {
		return StoreStats{}, errCorruptRPC
	}
	return st, nil
}
