// Package durable gives an index store a disk-backed mode: a compact
// full-store snapshot plus an append-only operation log, organized as
// numbered generations inside one data directory. The package is
// index-agnostic — records are opaque (kind, payload) pairs; the index
// layer (core.StoreServer) decides what a record means and how to replay
// it — so any store that can export its state and name its mutations can
// persist through it.
//
// On-disk layout (one generation live at a time):
//
//	snapshot-<gen>   full-store records at the moment gen was created
//	oplog-<gen>      operations applied since that snapshot
//
// Both files share one record framing: uvarint kind length, kind bytes,
// uvarint payload length, payload bytes, and a big-endian CRC32 (IEEE)
// over everything since the record start. Snapshots are written to a
// temporary file and atomically renamed, so a half-written snapshot can
// never be observed; the log is append-only, so a crash can only tear
// its tail, and Open recovers by truncating back to the last intact
// record. Compaction folds the log into a fresh snapshot under the next
// generation number and is crash-safe in every window: until the rename
// lands the old generation is authoritative, and after it lands the old
// files are garbage whether or not their deletion completed.
package durable

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/wire"
)

// Policy selects when appended log records are fsynced to stable storage.
type Policy int

const (
	// SyncAlways fsyncs after every append: a SIGKILL loses nothing.
	SyncAlways Policy = iota
	// SyncBatch fsyncs only on snapshot and Close: a crash can lose the
	// ops since the last sync, which replica catch-up re-pulls from the
	// surviving copies on rejoin.
	SyncBatch
	// SyncNever never fsyncs (tests and throwaway runs).
	SyncNever
)

// ParsePolicy maps the hdknode -fsync flag values onto a Policy.
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "batch":
		return SyncBatch, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("durable: unknown fsync policy %q (want always|batch|never)", s)
}

// String implements fmt.Stringer.
func (p Policy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncBatch:
		return "batch"
	default:
		return "never"
	}
}

// Record is one persisted unit: an opaque payload tagged with the kind
// the index layer replays it by.
type Record struct {
	Kind    string
	Payload []byte
}

// Options tunes a Store. The zero value selects SyncAlways and the
// default compaction threshold.
type Options struct {
	// Fsync is the log durability policy.
	Fsync Policy
	// CompactBytes is the op-log size at which ShouldCompact reports
	// true (default 4 MiB; negative disables size-triggered compaction).
	CompactBytes int64
}

const defaultCompactBytes = 4 << 20

func (o Options) withDefaults() Options {
	if o.CompactBytes == 0 {
		o.CompactBytes = defaultCompactBytes
	}
	return o
}

// File naming and headers.
const (
	snapshotPrefix = "snapshot-"
	oplogPrefix    = "oplog-"
	tmpSuffix      = ".tmp"
)

var (
	snapshotMagic = []byte("HDKSNAP\x01")
	oplogMagic    = []byte("HDKOPLG\x01")
)

// headerLen is magic (8 bytes) plus the big-endian generation (8 bytes).
const headerLen = 16

// ErrCorrupt is returned when a snapshot fails validation. (A torn log
// tail is NOT corruption — Open truncates and recovers silently.)
var ErrCorrupt = errors.New("durable: corrupt file")

// errTorn marks the first invalid record of a log: everything before it
// is kept, everything from it on is truncated away.
var errTorn = errors.New("durable: torn log record")

// Store is one data directory holding the current generation's snapshot
// and op log. All methods are safe for concurrent use; the caller is
// responsible for ordering Append calls consistently with the mutations
// they describe (the index layer holds its persistence lock across
// mutate+Append).
type Store struct {
	dir string
	opt Options

	mu       sync.Mutex
	gen      uint64
	log      *os.File
	logBytes int64
	closed   bool

	// Recovery state loaded by Open, released by DropRecovery.
	snapRecs  []Record
	opRecs    []Record
	truncated int // torn log records dropped during recovery

	// metrics is swapped in by Instrument (see metrics.go); nil until
	// then, so every observation hook is a single pointer load.
	metrics atomic.Pointer[storeMetrics]
}

// Open loads (or initializes) the data directory: it picks the highest
// generation with a valid snapshot (or generation 0 with no snapshot on
// first run), replays the matching op log up to its last intact record
// — truncating a torn tail left by a crash — deletes files from other
// generations and stale temporaries, and opens the log for appending.
// The recovered records are available via Snapshot/Ops until
// DropRecovery is called.
func Open(dir string, opt Options) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	s := &Store{dir: dir, opt: opt.withDefaults()}

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	snapGens := make(map[uint64]bool)
	logGens := make(map[uint64]bool)
	for _, ent := range entries {
		name := ent.Name()
		switch {
		case strings.HasSuffix(name, tmpSuffix):
			os.Remove(filepath.Join(dir, name)) // interrupted snapshot write
		case strings.HasPrefix(name, snapshotPrefix):
			if g, err := parseGen(name, snapshotPrefix); err == nil {
				snapGens[g] = true
			}
		case strings.HasPrefix(name, oplogPrefix):
			if g, err := parseGen(name, oplogPrefix); err == nil {
				logGens[g] = true
			}
		}
	}

	// Highest valid snapshot wins; with none, generation 0 starts from
	// an empty store plus whatever oplog-0 holds.
	gens := make([]uint64, 0, len(snapGens))
	for g := range snapGens {
		gens = append(gens, g)
	}
	sort.Slice(gens, func(i, j int) bool { return gens[i] > gens[j] })
	for _, g := range gens {
		recs, err := readSnapshot(s.snapshotPath(g), g)
		if err != nil {
			return nil, fmt.Errorf("durable: snapshot gen %d: %w", g, err)
		}
		s.gen = g
		s.snapRecs = recs
		break
	}

	if err := s.openLog(); err != nil {
		return nil, err
	}

	// Everything from other generations is garbage: either superseded
	// (older) or an interrupted compaction that never became
	// authoritative (a newer log without its snapshot).
	for g := range snapGens {
		if g != s.gen {
			os.Remove(s.snapshotPath(g))
		}
	}
	for g := range logGens {
		if g != s.gen {
			os.Remove(s.oplogPath(g))
		}
	}
	syncDir(dir)
	return s, nil
}

func parseGen(name, prefix string) (uint64, error) {
	return strconv.ParseUint(strings.TrimPrefix(name, prefix), 16, 64)
}

func (s *Store) snapshotPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x", snapshotPrefix, gen))
}

func (s *Store) oplogPath(gen uint64) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%016x", oplogPrefix, gen))
}

// openLog reads the current generation's log (recovering a torn tail by
// truncation) and leaves it open in append position, creating it fresh
// when absent.
func (s *Store) openLog() error {
	path := s.oplogPath(s.gen)
	raw, err := os.ReadFile(path)
	switch {
	case errors.Is(err, os.ErrNotExist):
		return s.createLog(path)
	case err != nil:
		return err
	}
	recs, valid, dropped, err := parseLog(raw, s.gen)
	if err != nil {
		// The header itself is unusable (torn creation): start over. Any
		// records it held are unrecoverable, but a log whose header never
		// made it to disk cannot hold synced records either.
		os.Remove(path)
		return s.createLog(path)
	}
	s.opRecs = recs
	s.truncated = dropped
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return err
	}
	if int64(valid) != int64(len(raw)) {
		if err := f.Truncate(int64(valid)); err != nil {
			f.Close()
			return err
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	if _, err := f.Seek(int64(valid), 0); err != nil {
		f.Close()
		return err
	}
	s.log = f
	s.logBytes = int64(valid)
	return nil
}

func (s *Store) createLog(path string) error {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, oplogMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, s.gen)
	if _, err := f.Write(hdr); err != nil {
		f.Close()
		return err
	}
	if s.opt.Fsync != SyncNever {
		if err := f.Sync(); err != nil {
			f.Close()
			return err
		}
	}
	s.log = f
	s.logBytes = headerLen
	return nil
}

// Snapshot returns the records of the loaded snapshot (nil on a cold
// start). Valid until DropRecovery.
func (s *Store) Snapshot() []Record { return s.snapRecs }

// Ops returns the intact op-log records recovered by Open, in append
// order. Valid until DropRecovery.
func (s *Store) Ops() []Record { return s.opRecs }

// TruncatedOps reports how many torn trailing log records recovery
// dropped (0 after a clean shutdown).
func (s *Store) TruncatedOps() int { return s.truncated }

// DropRecovery releases the recovery records once the index layer has
// replayed them.
func (s *Store) DropRecovery() {
	s.mu.Lock()
	s.snapRecs, s.opRecs = nil, nil
	s.mu.Unlock()
}

// Generation returns the live generation number (grows by one per
// compaction).
func (s *Store) Generation() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.gen
}

// LogBytes returns the current op-log size, header included.
func (s *Store) LogBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.logBytes
}

// Dir returns the data directory path.
func (s *Store) Dir() string { return s.dir }

// Append logs one operation record under the store's fsync policy.
func (s *Store) Append(kind string, payload []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store closed")
	}
	buf := appendRecord(nil, kind, payload)
	if _, err := s.log.Write(buf); err != nil {
		return fmt.Errorf("durable: append %q: %w", kind, err)
	}
	s.logBytes += int64(len(buf))
	s.observeAppend(len(buf))
	if s.opt.Fsync == SyncAlways {
		start := time.Now()
		if err := s.log.Sync(); err != nil {
			return fmt.Errorf("durable: sync: %w", err)
		}
		s.observeFsync(time.Since(start))
	}
	return nil
}

// ShouldCompact reports whether the op log has outgrown the compaction
// threshold.
func (s *Store) ShouldCompact() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.opt.CompactBytes > 0 && s.logBytes-headerLen >= s.opt.CompactBytes
}

// Compact folds the log into a fresh snapshot: write streams the
// full-store records of the CURRENT state (which, by the caller's
// locking, reflects every appended op). The snapshot lands atomically
// under the next generation; only then is the old generation removed.
// The caller must block Appends for the duration (the index layer holds
// its persistence write lock).
func (s *Store) Compact(write func(emit func(kind string, payload []byte) error) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return errors.New("durable: store closed")
	}
	next := s.gen + 1
	tmp := s.snapshotPath(next) + tmpSuffix
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	hdr := make([]byte, 0, headerLen)
	hdr = append(hdr, snapshotMagic...)
	hdr = binary.BigEndian.AppendUint64(hdr, next)
	// A full-store snapshot is hundreds of thousands of small records:
	// buffer them so the file sees a write per block, not per record.
	w := bufio.NewWriterSize(f, 1<<18)
	_, err = w.Write(hdr)
	if err == nil {
		var buf []byte
		err = write(func(kind string, payload []byte) error {
			buf = appendRecord(buf[:0], kind, payload)
			_, werr := w.Write(buf)
			return werr
		})
	}
	if err == nil {
		err = w.Flush()
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("durable: write snapshot gen %d: %w", next, err)
	}
	if err := os.Rename(tmp, s.snapshotPath(next)); err != nil {
		os.Remove(tmp)
		return err
	}
	syncDir(s.dir)

	// The new snapshot is authoritative from here on; swap in a fresh
	// empty log and drop the old generation.
	oldLog, oldGen := s.log, s.gen
	s.gen = next
	if err := s.createLog(s.oplogPath(next)); err != nil {
		// Roll back to the OLD generation as the authoritative one — and
		// that means the new snapshot must not survive on disk: a later
		// Open would pick the highest snapshot generation and discard
		// the old log (which keeps receiving fsync'd ops after this
		// return) as another generation's garbage.
		os.Remove(s.snapshotPath(next))
		syncDir(s.dir)
		s.log, s.gen = oldLog, oldGen
		return err
	}
	oldLog.Close()
	os.Remove(s.snapshotPath(oldGen))
	os.Remove(s.oplogPath(oldGen))
	syncDir(s.dir)
	s.observeCompaction()
	return nil
}

// Sync flushes the log to stable storage regardless of policy.
func (s *Store) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed || s.opt.Fsync == SyncNever {
		return nil
	}
	start := time.Now()
	if err := s.log.Sync(); err != nil {
		return err
	}
	s.observeFsync(time.Since(start))
	return nil
}

// Close syncs (under SyncAlways/SyncBatch) and closes the log.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	var err error
	if s.opt.Fsync != SyncNever {
		err = s.log.Sync()
	}
	if cerr := s.log.Close(); err == nil {
		err = cerr
	}
	return err
}

// --- record framing ------------------------------------------------------

// appendRecord serializes one record: uvarint kind length, kind, uvarint
// payload length, payload, CRC32-IEEE (big endian) over all of it.
func appendRecord(buf []byte, kind string, payload []byte) []byte {
	start := len(buf)
	buf = wire.AppendBytes(wire.AppendString(buf, kind), payload)
	crc := crc32.ChecksumIEEE(buf[start:])
	return binary.BigEndian.AppendUint32(buf, crc)
}

// parseRecord decodes one record from buf, returning it and the bytes
// consumed. errTorn means buf holds a truncated or corrupt record.
func parseRecord(buf []byte) (Record, int, error) {
	r := wire.NewReader(buf)
	kind := r.String(r.Uvarint())
	payload := append([]byte(nil), r.Bytes(r.Uvarint())...)
	off := len(buf) - r.Len()
	crc := r.Bytes(4)
	if r.Err() != nil || crc32.ChecksumIEEE(buf[:off]) != binary.BigEndian.Uint32(crc) {
		return Record{}, 0, errTorn
	}
	return Record{Kind: kind, Payload: payload}, off + 4, nil
}

// checkHeader validates a file header against the expected magic and
// generation.
func checkHeader(raw []byte, magic []byte, gen uint64) error {
	if len(raw) < headerLen {
		return fmt.Errorf("%w: short header", ErrCorrupt)
	}
	if string(raw[:len(magic)]) != string(magic) {
		return fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	if got := binary.BigEndian.Uint64(raw[len(magic):headerLen]); got != gen {
		return fmt.Errorf("%w: generation %d in file named for %d", ErrCorrupt, got, gen)
	}
	return nil
}

// readSnapshot loads and strictly validates a snapshot file: it was
// written atomically, so any framing or CRC failure is real corruption.
func readSnapshot(path string, gen uint64) ([]Record, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if err := checkHeader(raw, snapshotMagic, gen); err != nil {
		return nil, err
	}
	var recs []Record
	off := headerLen
	for off < len(raw) {
		rec, n, err := parseRecord(raw[off:])
		if err != nil {
			return nil, fmt.Errorf("%w: record %d", ErrCorrupt, len(recs))
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, nil
}

// parseLog walks a log file, keeping the longest intact record prefix.
// It returns the records, the byte offset the file should be truncated
// to, and how many bytes' worth of torn tail were dropped (as a record
// count of 0 or 1 — a tear can only hit the record being written).
func parseLog(raw []byte, gen uint64) (recs []Record, valid int, dropped int, err error) {
	if err := checkHeader(raw, oplogMagic, gen); err != nil {
		return nil, 0, 0, err
	}
	off := headerLen
	for off < len(raw) {
		rec, n, err := parseRecord(raw[off:])
		if err != nil {
			return recs, off, 1, nil // torn tail: keep the prefix
		}
		recs = append(recs, rec)
		off += n
	}
	return recs, off, 0, nil
}

// syncDir fsyncs a directory so renames and creates inside it survive a
// crash (best-effort: some platforms refuse directory fsync).
func syncDir(dir string) {
	if d, err := os.Open(dir); err == nil {
		d.Sync()
		d.Close()
	}
}
