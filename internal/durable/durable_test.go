package durable

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/telemetry"
)

func mustOpen(t *testing.T, dir string, opt Options) *Store {
	t.Helper()
	s, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func assertRecords(t *testing.T, got, want []Record) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Kind != want[i].Kind || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("record %d: got (%q, %x), want (%q, %x)",
				i, got[i].Kind, got[i].Payload, want[i].Kind, want[i].Payload)
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	want := []Record{
		{Kind: "insert", Payload: []byte("payload-1")},
		{Kind: "classify", Payload: nil},
		{Kind: "repair", Payload: bytes.Repeat([]byte{0xAB}, 1000)},
		{Kind: "insert", Payload: []byte{}},
	}

	s := mustOpen(t, dir, Options{Fsync: SyncAlways})
	if s.Snapshot() != nil || len(s.Ops()) != 0 {
		t.Fatalf("cold open returned recovery state: %v / %v", s.Snapshot(), s.Ops())
	}
	for _, r := range want {
		if err := s.Append(r.Kind, r.Payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	assertRecords(t, re.Ops(), want)
	if re.TruncatedOps() != 0 {
		t.Fatalf("clean log reported %d truncated ops", re.TruncatedOps())
	}
	if re.Generation() != 0 {
		t.Fatalf("generation = %d before any compaction", re.Generation())
	}
}

// TestTornWriteRecovery truncates the log mid-record (and, separately,
// corrupts the tail) and verifies Open keeps exactly the intact prefix
// and that subsequent appends extend it cleanly.
func TestTornWriteRecovery(t *testing.T) {
	base := []Record{
		{Kind: "a", Payload: []byte("first")},
		{Kind: "b", Payload: []byte("second")},
		{Kind: "c", Payload: []byte("third, torn away")},
	}
	// Each mangle receives the raw log bytes and the length of the last
	// record, and returns the crashed file content.
	for _, cut := range []struct {
		name   string
		mangle func(raw []byte, last int) []byte
	}{
		{"truncate-mid-record", func(raw []byte, last int) []byte {
			return raw[:len(raw)-last+3]
		}},
		{"flip-crc-bit", func(raw []byte, last int) []byte {
			out := append([]byte(nil), raw...)
			out[len(out)-1] ^= 0xFF
			return out
		}},
		{"garbage-tail", func(raw []byte, last int) []byte {
			return append(append([]byte(nil), raw[:len(raw)-last]...), 0xFF, 0xFF, 0xFF)
		}},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s := mustOpen(t, dir, Options{Fsync: SyncNever})
			for _, r := range base {
				if err := s.Append(r.Kind, r.Payload); err != nil {
					t.Fatal(err)
				}
			}
			path := s.oplogPath(0)
			last := len(appendRecord(nil, base[2].Kind, base[2].Payload))
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, cut.mangle(raw, last), 0o644); err != nil {
				t.Fatal(err)
			}

			re := mustOpen(t, dir, Options{Fsync: SyncNever})
			wantPrefix := base[:2]
			assertRecords(t, re.Ops(), wantPrefix)
			if re.TruncatedOps() == 0 {
				t.Fatal("recovery did not report a dropped torn record")
			}
			// The truncated log must accept appends and survive another cycle.
			if err := re.Append("d", []byte("after recovery")); err != nil {
				t.Fatal(err)
			}
			re.Close()
			final := mustOpen(t, dir, Options{})
			defer final.Close()
			assertRecords(t, final.Ops(), append(append([]Record{}, wantPrefix...),
				Record{Kind: "d", Payload: []byte("after recovery")}))
		})
	}
}

func TestCompactionRollsGeneration(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: SyncBatch})
	for i := 0; i < 5; i++ {
		if err := s.Append("op", []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	snap := []Record{
		{Kind: "entry", Payload: []byte("state-a")},
		{Kind: "entry", Payload: []byte("state-b")},
	}
	err := s.Compact(func(emit func(kind string, payload []byte) error) error {
		for _, r := range snap {
			if err := emit(r.Kind, r.Payload); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if s.Generation() != 1 {
		t.Fatalf("generation = %d after compaction, want 1", s.Generation())
	}
	if s.LogBytes() != headerLen {
		t.Fatalf("log not reset after compaction: %d bytes", s.LogBytes())
	}
	// Post-compaction ops land in the new generation's log.
	if err := s.Append("op", []byte("post")); err != nil {
		t.Fatal(err)
	}
	s.Close()

	// Old generation files are gone.
	if _, err := os.Stat(s.snapshotPath(0)); !os.IsNotExist(err) {
		t.Fatal("generation-0 snapshot not removed")
	}
	if _, err := os.Stat(s.oplogPath(0)); !os.IsNotExist(err) {
		t.Fatal("generation-0 oplog not removed")
	}

	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if re.Generation() != 1 {
		t.Fatalf("reopened generation = %d, want 1", re.Generation())
	}
	assertRecords(t, re.Snapshot(), snap)
	assertRecords(t, re.Ops(), []Record{{Kind: "op", Payload: []byte("post")}})
}

// TestCompactionCrashWindows simulates the crash points around a
// compaction and verifies Open always recovers a consistent generation.
func TestCompactionCrashWindows(t *testing.T) {
	setup := func(t *testing.T) (string, *Store) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Fsync: SyncNever})
		for i := 0; i < 3; i++ {
			if err := s.Append("op", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if err := s.Compact(func(emit func(string, []byte) error) error {
			return emit("entry", []byte("compacted"))
		}); err != nil {
			t.Fatal(err)
		}
		s.Close()
		return dir, s
	}

	t.Run("stale-tmp-ignored", func(t *testing.T) {
		dir, s := setup(t)
		tmp := s.snapshotPath(2) + tmpSuffix
		if err := os.WriteFile(tmp, []byte("half-written"), 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, dir, Options{})
		defer re.Close()
		if re.Generation() != 1 {
			t.Fatalf("generation = %d, want 1", re.Generation())
		}
		if _, err := os.Stat(tmp); !os.IsNotExist(err) {
			t.Fatal("stale snapshot tmp not removed")
		}
	})

	t.Run("snapshot-renamed-log-missing", func(t *testing.T) {
		// Crash after the rename but before the new log was created: the
		// new snapshot is authoritative, the old generation is garbage.
		dir, s := setup(t)
		raw, err := os.ReadFile(s.snapshotPath(1))
		if err != nil {
			t.Fatal(err)
		}
		// Forge generation 2 from generation 1's content.
		var hdr []byte
		hdr = append(hdr, snapshotMagic...)
		hdr = append(hdr, 0, 0, 0, 0, 0, 0, 0, 2)
		forged := append(hdr, raw[headerLen:]...)
		if err := os.WriteFile(s.snapshotPath(2), forged, 0o644); err != nil {
			t.Fatal(err)
		}
		re := mustOpen(t, dir, Options{})
		defer re.Close()
		if re.Generation() != 2 {
			t.Fatalf("generation = %d, want 2", re.Generation())
		}
		assertRecords(t, re.Snapshot(), []Record{{Kind: "entry", Payload: []byte("compacted")}})
		if len(re.Ops()) != 0 {
			t.Fatalf("fresh generation has %d ops", len(re.Ops()))
		}
		if _, err := os.Stat(s.oplogPath(1)); !os.IsNotExist(err) {
			t.Fatal("superseded generation-1 oplog not removed")
		}
	})
}

// TestCompactionLogSwapFailureRollsBack: when the new generation's log
// cannot be created, the rename already landed — so the rollback must
// also REMOVE the new snapshot, or a later Open would crown it and
// throw away the old log that kept receiving (fsync'd) ops.
func TestCompactionLogSwapFailureRollsBack(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: SyncNever})
	if err := s.Append("op", []byte("pre")); err != nil {
		t.Fatal(err)
	}
	// Force createLog(oplog-1) to fail: the file already exists and
	// createLog opens with O_EXCL.
	if err := os.WriteFile(s.oplogPath(1), []byte("squatter"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := s.Compact(func(emit func(string, []byte) error) error {
		return emit("entry", []byte("state"))
	})
	if err == nil {
		t.Fatal("compaction succeeded despite unswappable log")
	}
	if s.Generation() != 0 {
		t.Fatalf("generation = %d after failed compaction, want 0", s.Generation())
	}
	if _, err := os.Stat(s.snapshotPath(1)); !os.IsNotExist(err) {
		t.Fatal("orphaned snapshot-1 left on disk — a restart would crown it and drop oplog-0")
	}
	// The old generation keeps working: appends land in oplog-0 and
	// survive a reopen alongside the pre-compaction op.
	if err := s.Append("op", []byte("post")); err != nil {
		t.Fatal(err)
	}
	s.Close()
	os.Remove(s.oplogPath(1)) // clear the injected squatter
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	assertRecords(t, re.Ops(), []Record{
		{Kind: "op", Payload: []byte("pre")},
		{Kind: "op", Payload: []byte("post")},
	})
}

func TestShouldCompactThreshold(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: SyncNever, CompactBytes: 64})
	defer s.Close()
	if s.ShouldCompact() {
		t.Fatal("empty log wants compaction")
	}
	if err := s.Append("op", bytes.Repeat([]byte{1}, 128)); err != nil {
		t.Fatal(err)
	}
	if !s.ShouldCompact() {
		t.Fatal("oversized log does not want compaction")
	}
	disabled := mustOpen(t, filepath.Join(dir, "sub"), Options{Fsync: SyncNever, CompactBytes: -1})
	defer disabled.Close()
	if err := disabled.Append("op", bytes.Repeat([]byte{1}, 1024)); err != nil {
		t.Fatal(err)
	}
	if disabled.ShouldCompact() {
		t.Fatal("size-triggered compaction not disabled by negative threshold")
	}
}

func TestParsePolicy(t *testing.T) {
	for in, want := range map[string]Policy{"always": SyncAlways, "batch": SyncBatch, "never": SyncNever} {
		got, err := ParsePolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParsePolicy(%q) = %v, %v", in, got, err)
		}
		if got.String() != in {
			t.Fatalf("Policy(%v).String() = %q", got, got.String())
		}
	}
	if _, err := ParsePolicy("sometimes"); err == nil {
		t.Fatal("bad policy accepted")
	}
}

func TestCorruptSnapshotRejected(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: SyncNever})
	if err := s.Compact(func(emit func(string, []byte) error) error {
		return emit("entry", []byte("cell"))
	}); err != nil {
		t.Fatal(err)
	}
	path := s.snapshotPath(1)
	s.Close()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)-1] ^= 0xFF // break the record CRC
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir, Options{}); err == nil {
		t.Fatal("corrupt snapshot loaded without error")
	}
}

// TestForeignHeaderRefused: a whole header in another format — here the
// version byte of the magic bumped — is refused by name and left on
// disk; only a header that never fully reached disk (short, or all
// zeros) is a torn creation that Open starts afresh.
func TestForeignHeaderRefused(t *testing.T) {
	setup := func(t *testing.T, compact bool) (string, string) {
		dir := t.TempDir()
		s := mustOpen(t, dir, Options{Fsync: SyncNever})
		for i := 0; i < 3; i++ {
			if err := s.Append("op", []byte{byte(i)}); err != nil {
				t.Fatal(err)
			}
		}
		path := s.oplogPath(0)
		if compact {
			if err := s.Compact(func(emit func(string, []byte) error) error {
				return emit("entry", []byte("state"))
			}); err != nil {
				t.Fatal(err)
			}
			path = s.snapshotPath(1)
		}
		s.Close()
		return dir, path
	}
	rewrite := func(t *testing.T, path string, mangle func([]byte) []byte) []byte {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		raw = mangle(raw)
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	bumpVersion := func(raw []byte) []byte { raw[7]++; return raw }

	for _, tc := range []struct {
		name    string
		compact bool
		want    string
	}{{"oplog", false, "HDKOPLG\\x02"}, {"snapshot", true, "HDKSNAP\\x02"}} {
		t.Run(tc.name+"-foreign-version", func(t *testing.T) {
			dir, path := setup(t, tc.compact)
			raw := rewrite(t, path, bumpVersion)
			_, err := Open(dir, Options{})
			if !errors.Is(err, ErrFormat) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Open = %v, want ErrFormat naming %s and magic %s", err, path, tc.want)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, raw) {
				t.Fatalf("refused file changed on disk: %d -> %d bytes", len(raw), len(after))
			}
		})
	}
	for _, tc := range []struct {
		name   string
		mangle func([]byte) []byte
	}{
		{"short", func(raw []byte) []byte { return raw[:headerLen-1] }},
		{"all-zeros", func(raw []byte) []byte { return make([]byte, len(raw)) }},
	} {
		t.Run("oplog-torn-header-"+tc.name, func(t *testing.T) {
			dir, path := setup(t, false)
			rewrite(t, path, tc.mangle)
			re := mustOpen(t, dir, Options{})
			defer re.Close()
			if len(re.Ops()) != 0 {
				t.Fatalf("torn creation recovered %d ops", len(re.Ops()))
			}
		})
	}
}

func TestManyGenerations(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir, Options{Fsync: SyncNever})
	for g := 0; g < 4; g++ {
		if err := s.Append("op", []byte(fmt.Sprintf("gen-%d", g))); err != nil {
			t.Fatal(err)
		}
		if err := s.Compact(func(emit func(string, []byte) error) error {
			return emit("entry", []byte(fmt.Sprintf("state-%d", g)))
		}); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 2 {
		names := make([]string, len(ents))
		for i, e := range ents {
			names[i] = e.Name()
		}
		t.Fatalf("data dir holds %v, want exactly one snapshot + one oplog", names)
	}
	re := mustOpen(t, dir, Options{})
	defer re.Close()
	if re.Generation() != 4 {
		t.Fatalf("generation = %d, want 4", re.Generation())
	}
	assertRecords(t, re.Snapshot(), []Record{{Kind: "entry", Payload: []byte("state-3")}})
}

// TestInstrumentRepoints: a store counts its appends on a private
// registry from Open and, after Instrument, on the registry it was given.
func TestInstrumentRepoints(t *testing.T) {
	s := mustOpen(t, t.TempDir(), Options{Fsync: SyncAlways})
	defer s.Close()
	if err := s.Append("op", []byte("a")); err != nil {
		t.Fatal(err)
	}
	reg := telemetry.NewRegistry()
	s.Instrument(reg)
	if err := s.Append("op", []byte("b")); err != nil {
		t.Fatal(err)
	}
	snap := reg.Snapshot()
	appends, _ := snap.Counter(metricAppends)
	fsyncs, _ := snap.Histogram(metricFsyncNanos)
	if appends != 1 || fsyncs.Count != 1 {
		t.Fatalf("after Instrument: %d appends, %d fsyncs timed; want 1, 1", appends, fsyncs.Count)
	}
}
