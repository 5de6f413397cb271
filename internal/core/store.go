package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"slices"
	"sort"
	"strings"
	"sync"

	"repro/internal/postings"
	"repro/internal/replica"
	"repro/internal/wire"
)

// Service names the HDK engine registers on overlay nodes.
const (
	// SvcInsert merges a peer's local posting lists into the index
	// (exported so the cluster daemon can meter re-index traffic).
	SvcInsert     = "hdk.insert"
	SvcFetchBatch = "hdk.fetchBatch"
	// SvcNotify delivers NDK expansion notifications to a contributing
	// peer (exported so the cluster daemon can route deliveries from an
	// external build coordinator to its locally hosted peer).
	SvcNotify = "hdk.notify"
)

// KeyStatus is the global classification of a key held by the index.
type KeyStatus uint8

// Key classifications. Absent is only produced by fetches for keys the
// index does not hold.
const (
	StatusAbsent KeyStatus = iota
	StatusHDK
	StatusNDK
)

// String implements fmt.Stringer.
func (s KeyStatus) String() string {
	switch s {
	case StatusHDK:
		return "HDK"
	case StatusNDK:
		return "NDK"
	default:
		return "absent"
	}
}

// entry is one key's state in an index node's fraction of the global
// index.
type entry struct {
	size       int
	list       postings.List // full for HDKs, top-DFmax for NDKs
	df         int           // true global document frequency
	classified bool
	status     KeyStatus
	// contributors are the notify addresses of peers that inserted
	// postings for this key and must be told when it turns ND: sorted,
	// distinct, and never modified in place — entries with the same
	// contributors share one slice (see insertBatch), and the export
	// encoding, checksum and notify order read it as it stands.
	contributors []string
	// sum memoizes the content checksum of the entry's canonical export
	// (valid while sumOK): repair sweeps fingerprint entries far more
	// often than mutations dirty them, and the checksum costs a full
	// re-encode. Guarded by the store lock like every other field.
	sum   uint64
	sumOK bool
}

// hdkStore is the fraction of the global index one overlay node is
// responsible for.
type hdkStore struct {
	mu      sync.Mutex
	cfg     *Config
	entries map[string]*entry
}

func newHDKStore(cfg *Config) *hdkStore {
	return &hdkStore{cfg: cfg, entries: make(map[string]*entry)}
}

// insertBatch merges one peer's local posting lists for a batch of keys
// under a single lock acquisition. Doc sets are disjoint across peers
// (each document lives on exactly one peer), so the global df is the sum
// of inserted list lengths. It returns, for keys that were already
// classified, their status (Aux) so new contributors of such keys learn
// it in the insert response (incremental maintenance: a peer whose new
// documents introduce a term it never held must still know the term is
// non-discriminative to expand it).
//
// The store takes ownership of the batch's posting lists: a new entry
// keeps the list it was handed, and later contributions merge into the
// entry's own backing array.
//
// For classified NDKs the merged list is re-truncated immediately. This
// is exact: a posting evicted by an earlier truncation was dominated by
// DFmax better postings, which are all still present, so it can never
// re-enter any later top-DFmax.
func (s *hdkStore) insertBatch(contributor string, batch []postings.KeyedMessage) []postings.KeyedMessage {
	// Contributor sets are shared: every entry this batch creates points
	// at solo, and every entry it grows from one set points at the same
	// grown copy, found again by the identity of the set it grew from.
	solo := []string{contributor}
	grown := make(map[*string][]string)
	var classified []postings.KeyedMessage
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, m := range batch {
		e, ok := s.entries[m.Key]
		if !ok {
			e = &entry{size: int(m.Aux)}
			// The map retains the key; clone it so a key substringing a
			// decoded RPC batch does not pin the whole request buffer.
			s.entries[strings.Clone(m.Key)] = e
		}
		if len(e.contributors) == 0 {
			e.contributors = solo
		} else if i, found := slices.BinarySearch(e.contributors, contributor); !found {
			from := &e.contributors[0]
			set, ok := grown[from]
			if !ok {
				set = slices.Insert(slices.Clip(e.contributors), i, contributor)
				grown[from] = set
			}
			e.contributors = set
		}
		e.df += len(m.List)
		if e.classified && e.status == StatusNDK {
			e.list = postings.Union(e.list, m.List).TopK(s.cfg.DFMax)
		} else {
			e.list = postings.UnionInPlace(e.list, m.List)
		}
		e.sumOK = false
		if e.classified {
			classified = append(classified, postings.KeyedMessage{Key: m.Key, Aux: uint64(e.status)})
		}
	}
	return classified
}

// classifySweep classifies every not-yet-classified entry of the given
// size (df <= DFmax becomes an HDK keeping its full posting list;
// anything above becomes an NDK truncated to its top-DFmax postings) and
// RE-classifies already-classified HDKs whose df grew past DFmax through
// incremental insertion — the paper's maintenance rule: "if any of the
// inserted HDKs become globally non-discriminative, [the network]
// notifies the peers that have submitted such key". It returns, per newly
// non-discriminative key, the contributors to notify (sorted; shared with
// the entry, so read-only).
func (s *hdkStore) classifySweep(size int) map[string][]string {
	s.mu.Lock()
	defer s.mu.Unlock()
	notify := make(map[string][]string)
	for key, e := range s.entries {
		if e.size != size {
			continue
		}
		switch {
		case !e.classified:
			e.classified = true
			e.sumOK = false
			if e.df <= s.cfg.DFMax {
				e.status = StatusHDK
				continue
			}
		case e.status == StatusHDK && e.df > s.cfg.DFMax:
			// HDK turned non-discriminative under new documents.
		default:
			continue
		}
		e.sumOK = false
		e.status = StatusNDK
		e.list = e.list.TopK(s.cfg.DFMax)
		notify[key] = e.contributors
	}
	return notify
}

// fetch returns the key's classification, global df and its posting list
// with the idf(df) relevance factor applied (the index node knows the
// global df; the querying peer only merges).
func (s *hdkStore) fetch(key string) (KeyStatus, int, postings.List) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fetchLocked(key)
}

func (s *hdkStore) fetchLocked(key string) (KeyStatus, int, postings.List) {
	e, ok := s.entries[key]
	if !ok || !e.classified {
		return StatusAbsent, 0, nil
	}
	idf := float32(s.cfg.Stats.IDF(e.df))
	scored := make(postings.List, len(e.list))
	for i, p := range e.list {
		scored[i] = postings.Posting{Doc: p.Doc, Score: p.Score * idf}
	}
	return e.status, e.df, scored
}

// fetchBatch answers one multi-key fetch under a single lock acquisition:
// the response carries, per requested key in request order, the same
// (status, df, scored list) triple a single fetch would return.
func (s *hdkStore) fetchBatch(keys []string) []fetchResult {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]fetchResult, len(keys))
	for i, key := range keys {
		status, df, list := s.fetchLocked(key)
		out[i] = fetchResult{key: key, status: status, df: df, list: list}
	}
	return out
}

// fetchBatchWire answers one multi-key fetch directly in wire form: the
// exact response size is computed first, then statuses, dfs and
// idf-scaled posting lists are encoded into one allocation — the scored
// values never materialize as an intermediate list, because their
// lifetime ends the moment they are written into the response buffer.
// Each key is looked up once; a nil slot is an absent key.
// The bytes are identical to encodeFetchBatchResp(fetchBatch(keys)).
func (s *hdkStore) fetchBatchWire(keys []string) []byte {
	var small [16]*entry
	ents := small[:0]
	s.mu.Lock()
	defer s.mu.Unlock()
	size := postings.UvarintSize(uint64(len(keys)))
	for _, key := range keys {
		size += postings.UvarintSize(uint64(len(key))) + len(key)
		e, ok := s.entries[key]
		if ok && e.classified {
			size += postings.UvarintSize(uint64(e.df)<<2|uint64(e.status)) + postings.EncodedSize(e.list)
		} else {
			e = nil
			size += 2 // absent: aux 0 + empty list count
		}
		ents = append(ents, e)
	}
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(keys)))
	for i, key := range keys {
		buf = binary.AppendUvarint(buf, uint64(len(key)))
		buf = append(buf, key...)
		e := ents[i]
		if e == nil {
			buf = append(buf, 0, 0)
			continue
		}
		buf = binary.AppendUvarint(buf, uint64(e.df)<<2|uint64(e.status))
		buf = postings.EncodeScaled(buf, e.list, float32(s.cfg.Stats.IDF(e.df)))
	}
	return buf
}

// keyList returns the store's resident keys in sorted order (the
// replica repair inventory).
func (s *hdkStore) keyList() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]string, 0, len(s.entries))
	for key := range s.entries {
		out = append(out, key)
	}
	sort.Strings(out)
	return out
}

// keyCount returns the number of resident keys.
func (s *hdkStore) keyCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.entries)
}

// census lists every resident key, ascending, with its copy's replica
// fingerprint: the global df (monotone under inserts) plus a content
// checksum over the entry's canonical export encoding. Two replicas that
// saw the same inserts produce byte-identical exports and therefore
// equal fingerprints; a copy that missed inserts reports a lower df, and
// a divergent copy with a coincidentally equal df reports a different
// checksum — either way the repair sweep sees it.
func (s *hdkStore) census() []replica.Copy {
	s.mu.Lock()
	out := make([]replica.Copy, 0, len(s.entries))
	for key, e := range s.entries {
		out = append(out, replica.Copy{Key: key, FP: fingerprintEntry(e)})
	}
	s.mu.Unlock()
	slices.SortFunc(out, func(a, b replica.Copy) int { return strings.Compare(a.Key, b.Key) })
	return out
}

// fingerprintEntry derives the replica fingerprint of an entry, (re)
// computing the memoized checksum if a mutation dirtied it. The caller
// must hold the store lock (or own the entry exclusively).
func fingerprintEntry(e *entry) replica.Fingerprint {
	if !e.sumOK {
		e.sum = blobSum(appendEntryExport(nil, e))
		e.sumOK = true
	}
	return replica.Fingerprint{Version: e.df, Sum: e.sum}
}

// blobSum is the content checksum fingerprints carry (FNV-1a 64).
func blobSum(blob []byte) uint64 {
	h := fnv.New64a()
	h.Write(blob)
	return h.Sum64()
}

// exportEntries snapshots the entries for keys, in order, as repair
// items; a key the store does not hold is an error. A snapshot is the
// canonical export (appendEntryExport): it carries everything a replica
// needs to serve fetches AND to keep participating in maintenance
// (classification sweeps, NDK notifications) for the key.
func (s *hdkStore) exportEntries(keys []string) ([]replica.Item, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	items := make([]replica.Item, len(keys))
	for i, key := range keys {
		e, ok := s.entries[key]
		if !ok {
			return nil, fmt.Errorf("core: %q is not resident", key)
		}
		items[i] = replica.Item{Key: key, Blob: appendEntryExport(nil, e)}
	}
	return items, nil
}

// appendEntryExport appends the canonical export encoding of an entry to
// buf. Deterministic (contributors sorted, postings delta-coded), so equal
// copies export byte-identically on every member. The caller must hold
// the store lock (or own the entry exclusively).
func appendEntryExport(buf []byte, e *entry) []byte {
	buf = binary.AppendUvarint(buf, uint64(e.size))
	buf = binary.AppendUvarint(buf, uint64(e.df))
	flags := byte(e.status)
	if e.classified {
		flags |= 1 << 2
	}
	buf = append(buf, flags)
	buf = binary.AppendUvarint(buf, uint64(len(e.contributors)))
	for _, a := range e.contributors {
		buf = wire.AppendString(buf, a)
	}
	return postings.Encode(buf, e.list)
}

// exportAll streams every resident entry as a durable snapshot cell
// (appendEntryRecord: key + canonical export) to emit in sorted key order
// — the full-store snapshot source for the durable persistence layer. The
// cell is encoded into one buffer reused across entries, so emit must not
// retain it. The snapshot is point-in-time consistent: the store lock is
// held for the duration.
func (s *hdkStore) exportAll(emit func(cell []byte) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	keys := make([]string, 0, len(s.entries))
	for key := range s.entries {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var cell []byte
	for _, key := range keys {
		cell = appendEntryRecord(cell[:0], key, s.entries[key])
		if err := emit(cell); err != nil {
			return err
		}
	}
	return nil
}

// decodeEntryBlob parses a canonical entry export produced by
// appendEntryExport and nothing else: unknown flag bits and contributors
// out of strictly ascending order are rejected, so an accepted blob
// re-exports byte-identically (the premise of the checksum memo).
func decodeEntryBlob(blob []byte) (*entry, error) {
	r := wire.NewReader(blob)
	size, df, flags := r.Uvarint(), r.Uvarint(), r.Byte()
	status := KeyStatus(flags & 3)
	if size < 1 || size > MaxKeySize || status > StatusNDK || flags&^7 != 0 {
		return nil, errCorruptRPC
	}
	contributors := make([]string, r.Count(1))
	for i := range contributors {
		contributors[i] = r.String(r.Uvarint())
		if i > 0 && contributors[i] <= contributors[i-1] {
			r.Fail()
		}
	}
	list := postings.ReadList(&r)
	if !r.Done() {
		return nil, errCorruptRPC
	}
	return &entry{
		size:         int(size),
		list:         list,
		df:           int(df),
		classified:   flags&(1<<2) != 0,
		status:       status,
		contributors: contributors,
	}, nil
}

// importEntry installs a repair snapshot, reporting whether it landed.
// An existing copy is replaced only when the incoming one's fingerprint
// is strictly better: replicas that saw the same inserts are
// byte-identical (equal fingerprints, no-op), a copy that missed inserts
// has a lower df and is overwritten by the fuller one, and a DIVERGENT
// copy whose disjoint inserts happen to sum to the same df loses to the
// higher-checksum copy — the deterministic tiebreak every sweep agrees
// on, so all replicas converge.
func (s *hdkStore) importEntry(key string, blob []byte) (bool, error) {
	e, err := decodeEntryBlob(blob)
	if err != nil {
		return false, err
	}
	in := replica.Fingerprint{Version: e.df, Sum: blobSum(blob)}
	// decodeEntryBlob accepts only canonical blobs, so the entry
	// re-exports byte-identically to blob and its checksum is known.
	e.sum, e.sumOK = in.Sum, true
	s.mu.Lock()
	defer s.mu.Unlock()
	if cur, exists := s.entries[key]; exists && !in.Better(fingerprintEntry(cur)) {
		return false, nil
	}
	s.entries[key] = e
	return true, nil
}

// restoreEntry force-installs an entry from a durable snapshot or log
// record, replacing any resident copy: during recovery the record
// sequence itself is the authority, not fingerprint order.
func (s *hdkStore) restoreEntry(key string, blob []byte) error {
	e, err := decodeEntryBlob(blob)
	if err != nil {
		return err
	}
	e.sum, e.sumOK = blobSum(blob), true
	s.mu.Lock()
	s.entries[key] = e
	s.mu.Unlock()
	return nil
}

// storedBySize returns resident posting counts and key counts per key
// size (Figures 3 and 5 inputs).
func (s *hdkStore) storedBySize(maxSize int) (posts, keys []int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	posts = make([]int, maxSize+1)
	keys = make([]int, maxSize+1)
	for _, e := range s.entries {
		if e.size <= maxSize {
			posts[e.size] += len(e.list)
			keys[e.size]++
		}
	}
	return posts, keys
}

// --- wire encoding -------------------------------------------------------

// errCorruptRPC is returned for malformed HDK RPC payloads.
var errCorruptRPC = errors.New("core: corrupt rpc payload")

// insert request: uvarint contributor-addr length, addr bytes, then a
// keyed batch with Aux = key size.
func encodeInsertReq(buf []byte, contributor string, batch []postings.KeyedMessage) []byte {
	return postings.EncodeKeyedBatch(wire.AppendString(buf, contributor), batch)
}

func decodeInsertReq(req []byte) (contributor string, batch []postings.KeyedMessage, err error) {
	r := wire.NewReader(req)
	contributor = r.String(r.Uvarint())
	if r.Err() != nil {
		return "", nil, errCorruptRPC
	}
	batch, err = postings.DecodeKeyedBatch(r.Rest())
	return contributor, batch, err
}

// fetchResult is one key's answer inside a batched fetch response.
type fetchResult struct {
	key    string
	status KeyStatus
	df     int
	list   postings.List
}

// batch fetch request: a count-prefixed key list.
func encodeFetchBatchReq(keys []string) []byte {
	return postings.EncodeKeyList(nil, keys)
}

func decodeFetchBatchReq(req []byte) ([]string, error) {
	return postings.DecodeKeyList(req)
}

// batch fetch response: a keyed batch mirroring the single fetch response
// per key (Aux = df<<2 | status), one message per requested key, in
// request order.
func encodeFetchBatchResp(results []fetchResult) []byte {
	ms := make([]postings.KeyedMessage, len(results))
	for i, r := range results {
		ms[i] = postings.KeyedMessage{
			Key:  r.key,
			Aux:  uint64(r.df)<<2 | uint64(r.status),
			List: r.list,
		}
	}
	return postings.EncodeKeyedBatch(nil, ms)
}

func decodeFetchBatchResp(resp []byte) ([]fetchResult, error) {
	batch, err := postings.DecodeKeyedBatch(resp)
	if err != nil {
		return nil, err
	}
	out := make([]fetchResult, len(batch))
	for i, m := range batch {
		status := KeyStatus(m.Aux & 3)
		if status > StatusNDK {
			return nil, fmt.Errorf("%w: bad status %d", errCorruptRPC, status)
		}
		out[i] = fetchResult{key: m.Key, status: status, df: int(m.Aux >> 2), list: m.List}
	}
	return out, nil
}
