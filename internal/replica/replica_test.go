package replica

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sort"
	"testing"

	"repro/internal/overlay"
	"repro/internal/transport"
)

func chordNet(t *testing.T, n int) *overlay.Network {
	t.Helper()
	net := overlay.NewNetwork(transport.NewInProc())
	for i := 0; i < n; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

// assertOwnerSets checks the placement contract: primary
// first, all distinct, capped at the overlay size.
func assertOwnerSets(t *testing.T, f overlay.Fabric, size int) {
	t.Helper()
	for _, key := range []string{"alpha", "beta", "gamma|delta", "x", "longer key with spaces"} {
		primary, ok := f.OwnerOf(key)
		if !ok {
			t.Fatalf("no owner for %q", key)
		}
		for r := 1; r <= size+2; r++ {
			owners := f.OwnersOf(key, r)
			want := r
			if want > size {
				want = size
			}
			if len(owners) != want {
				t.Fatalf("key %q r=%d: got %d owners, want %d", key, r, len(owners), want)
			}
			if owners[0].ID() != primary.ID() {
				t.Fatalf("key %q r=%d: first owner %x is not the primary %x",
					key, r, owners[0].ID(), primary.ID())
			}
			seen := make(map[overlay.ID]bool)
			for _, m := range owners {
				if seen[m.ID()] {
					t.Fatalf("key %q r=%d: duplicate owner %x", key, r, m.ID())
				}
				seen[m.ID()] = true
			}
		}
	}
}

func TestOwnersChord(t *testing.T) { assertOwnerSets(t, chordNet(t, 7), 7) }

func TestOwnersSingleNode(t *testing.T) {
	net := chordNet(t, 1)
	owners := net.OwnersOf("solo", 3)
	if len(owners) != 1 {
		t.Fatalf("1-node overlay returned %d owners", len(owners))
	}
}

// TestChordPromotionAfterDeparture verifies the churn-stability property
// failover relies on: when the primary leaves, the new primary is the
// old second replica.
func TestChordPromotionAfterDeparture(t *testing.T) {
	net := chordNet(t, 8)
	key := "promoted-key"
	before := net.OwnersOf(key, 3)
	if !net.RemoveNode(before[0].ID()) {
		t.Fatal("failed to remove primary")
	}
	after, ok := net.OwnerOf(key)
	if !ok {
		t.Fatal("no owner after departure")
	}
	if after.ID() != before[1].ID() {
		t.Fatalf("new primary %x is not the old second replica %x", after.ID(), before[1].ID())
	}
}

func TestBatchCodecRoundTrip(t *testing.T) {
	items := []Item{
		{Key: "a", Blob: []byte{1, 2, 3}},
		{Key: "multi word|key", Blob: nil},
		{Key: "", Blob: bytes.Repeat([]byte{0xFF}, 300)},
	}
	got, err := DecodeBatch(EncodeBatch(nil, items))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(items) {
		t.Fatalf("decoded %d items, want %d", len(got), len(items))
	}
	for i := range items {
		if got[i].Key != items[i].Key || !bytes.Equal(got[i].Blob, items[i].Blob) {
			t.Fatalf("item %d mismatch: %+v vs %+v", i, got[i], items[i])
		}
	}
}

// --- fake replicated index for sweep/catch-up tests ---------------------

// fakeInv is an Inventory over plain maps: addr -> key -> copy. Blobs
// self-describe their fingerprint (uvarint version + uvarint sum), so
// the repair Service handler can install them with the same
// better-fingerprint-wins rule the real store uses.
type fakeInv map[string]map[string]fakeCopy

type fakeCopy struct {
	fp   Fingerprint
	blob []byte
}

func fakeBlob(fp Fingerprint) []byte {
	buf := binary.AppendUvarint(nil, uint64(fp.Version))
	return binary.AppendUvarint(buf, fp.Sum)
}

func parseFakeBlob(blob []byte) (Fingerprint, error) {
	v, n := binary.Uvarint(blob)
	if n <= 0 {
		return Fingerprint{}, ErrCorrupt
	}
	s, m := binary.Uvarint(blob[n:])
	if m <= 0 || n+m != len(blob) {
		return Fingerprint{}, ErrCorrupt
	}
	return Fingerprint{Version: int(v), Sum: s}, nil
}

func (v fakeInv) put(addr, key string, fp Fingerprint) {
	if v[addr] == nil {
		v[addr] = make(map[string]fakeCopy)
	}
	v[addr][key] = fakeCopy{fp: fp, blob: fakeBlob(fp)}
}

func (v fakeInv) Keys(m overlay.Member) []string {
	keys := make([]string, 0, len(v[m.Addr()]))
	for k := range v[m.Addr()] {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func (v fakeInv) Fingerprint(m overlay.Member, key string) (Fingerprint, bool) {
	c, ok := v[m.Addr()][key]
	return c.fp, ok
}

func (v fakeInv) Export(m overlay.Member, key string) ([]byte, bool) {
	c, ok := v[m.Addr()][key]
	return c.blob, ok
}

// attachFakeImport registers the repair Service on every overlay node,
// installing shipped copies into the fake inventory under the
// better-fingerprint-wins rule.
func attachFakeImport(t *testing.T, net *overlay.Network, inv fakeInv) {
	for _, m := range net.Members() {
		addr := m.Addr()
		m.Handle(Service, func(req []byte) ([]byte, error) {
			items, err := DecodeBatch(req)
			if err != nil {
				return nil, err
			}
			for _, it := range items {
				fp, err := parseFakeBlob(it.Blob)
				if err != nil {
					return nil, err
				}
				if cur, ok := inv[addr][it.Key]; !ok || fp.Better(cur.fp) {
					inv.put(addr, it.Key, fp)
				}
			}
			return nil, nil
		})
	}
}

// TestSweepDetectsEqualDFDivergence: two replicas whose copies report
// the SAME version but different content checksums are divergent; the
// audit must flag them and repair must converge both onto the
// deterministic winner (higher checksum).
func TestSweepDetectsEqualDFDivergence(t *testing.T) {
	net := chordNet(t, 4)
	inv := fakeInv{}
	attachFakeImport(t, net, inv)

	const key, r = "diverged-key", 2
	owners := net.OwnersOf(key, r)
	inv.put(owners[0].Addr(), key, Fingerprint{Version: 3, Sum: 111})
	inv.put(owners[1].Addr(), key, Fingerprint{Version: 3, Sum: 999})

	audit := Audit(net, inv, r)
	if audit.UnderReplicated != 1 || audit.MissingCopies != 1 {
		t.Fatalf("audit trusts divergent equal-version copies: %+v", audit)
	}

	rp := &Repairer{Fabric: net, Inv: inv, R: r}
	st, err := rp.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if st.CopiesSent != 1 {
		t.Fatalf("repair shipped %d copies, want 1", st.CopiesSent)
	}
	want := Fingerprint{Version: 3, Sum: 999}
	for _, o := range owners {
		if fp, ok := inv.Fingerprint(o, key); !ok || fp != want {
			t.Fatalf("owner %s holds %+v after repair, want %+v", o.Addr(), fp, want)
		}
	}
	if after := Audit(net, inv, r); after.UnderReplicated != 0 {
		t.Fatalf("divergence not healed: %+v", after)
	}
}

// TestCatchUpPullsOnlyDelta: a warm-restarted member must pull exactly
// the keys its restored store is missing or behind on — nothing gets
// pushed anywhere else, up-to-date copies cost zero traffic.
func TestCatchUpPullsOnlyDelta(t *testing.T) {
	const n, r = 5, 3
	net := chordNet(t, n)
	inv := fakeInv{}
	attachFakeImport(t, net, inv)
	self := net.Members()[0]

	// Partition the keyspace by how self's copy relates to the replicas'.
	fresh := Fingerprint{Version: 1, Sum: 50}
	bumped := Fingerprint{Version: 2, Sum: 60}
	var owned, upToDate, stale, missing, notMine int
	for i := 0; i < 60; i++ {
		key := fmt.Sprintf("key-%02d", i)
		owners := net.OwnersOf(key, r)
		mine := false
		for _, o := range owners {
			if o.ID() == self.ID() {
				mine = true
			}
		}
		if !mine {
			notMine++
			for _, o := range owners {
				inv.put(o.Addr(), key, fresh)
			}
			continue
		}
		owned++
		switch owned % 3 {
		case 0: // self up to date
			upToDate++
			for _, o := range owners {
				inv.put(o.Addr(), key, fresh)
			}
		case 1: // writes missed while down: others moved ahead
			stale++
			for _, o := range owners {
				if o.ID() == self.ID() {
					inv.put(o.Addr(), key, fresh)
				} else {
					inv.put(o.Addr(), key, bumped)
				}
			}
		case 2: // fsync lag: the restored store never saw the key
			missing++
			for _, o := range owners {
				if o.ID() != self.ID() {
					inv.put(o.Addr(), key, fresh)
				}
			}
		}
	}
	if stale == 0 || missing == 0 || upToDate == 0 || notMine == 0 {
		t.Fatalf("degenerate partition: owned=%d stale=%d missing=%d upToDate=%d notMine=%d",
			owned, stale, missing, upToDate, notMine)
	}

	before := len(inv[self.Addr()])
	rp := &Repairer{Fabric: net, Inv: inv, R: r}
	st, err := rp.CatchUp(self)
	if err != nil {
		t.Fatal(err)
	}
	if st.KeysOwned != owned {
		t.Fatalf("KeysOwned = %d, want %d", st.KeysOwned, owned)
	}
	if st.Stale != stale+missing || st.CopiesPulled != stale+missing {
		t.Fatalf("delta = %+v, want %d stale+missing pulls", st, stale+missing)
	}
	if st.PullRPCs != 1 {
		t.Fatalf("catch-up used %d RPCs, want 1 batched import", st.PullRPCs)
	}
	if got := len(inv[self.Addr()]); got != before+missing {
		t.Fatalf("self holds %d keys, want %d", got, before+missing)
	}
	// A second catch-up finds nothing to do.
	again, err := rp.CatchUp(self)
	if err != nil {
		t.Fatal(err)
	}
	if again.Stale != 0 || again.CopiesPulled != 0 || again.PullRPCs != 0 {
		t.Fatalf("second catch-up still pulled: %+v", again)
	}
	// No other member's store changed (pull-only).
	audit := Audit(net, inv, r)
	if audit.UnderReplicated != 0 {
		t.Fatalf("catch-up left deficits: %+v", audit)
	}
}

func TestBatchCodecCorrupt(t *testing.T) {
	valid := EncodeBatch(nil, []Item{{Key: "k", Blob: []byte("data")}})
	for _, tc := range [][]byte{
		{},
		valid[:len(valid)-1],           // truncated blob
		append(valid, 0x01),            // trailing bytes
		{0xFF, 0xFF, 0xFF, 0xFF, 0x0F}, // absurd count
	} {
		if _, err := DecodeBatch(tc); err == nil {
			t.Fatalf("decoded corrupt batch %v without error", tc)
		}
	}
}
