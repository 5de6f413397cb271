package replica

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/overlay"
)

// Fingerprint is the per-copy freshness identity the repair sweep
// compares across replicas: a monotone version plus a content checksum.
// The version alone (the HDK engine uses the global df) orders copies
// that saw different NUMBERS of inserts, but two divergent copies whose
// disjoint insert batches happen to sum to the same df would compare
// equal; the checksum over the copy's content breaks exactly that tie,
// so silent divergence is detected and healed instead of trusted.
type Fingerprint struct {
	// Version is a monotone freshness counter: replicas that saw the
	// same inserts agree on it, a replica that missed inserts reports a
	// smaller value.
	Version int
	// Sum is a checksum of the copy's content. Copies with equal Version
	// but different Sum are divergent; the sweep deterministically
	// converges them onto the higher-Sum copy.
	Sum uint64
}

// Better reports whether f should replace o in a repair sweep: a higher
// version always wins; at equal versions the higher checksum wins (an
// arbitrary but deterministic total order over divergent equals, so
// every sweep — on any member — picks the same survivor).
func (f Fingerprint) Better(o Fingerprint) bool {
	if f.Version != o.Version {
		return f.Version > o.Version
	}
	return f.Sum > o.Sum
}

// Copy is one resident key in a member's census: the key and its copy's
// freshness fingerprint.
type Copy struct {
	Key string
	FP  Fingerprint
}

// Inventory is the Repairer's view of the replicated index: one census
// per member (every resident key with its copy's fingerprint) and a
// batched export of opaque entry snapshots. The index layer (e.g. the
// HDK engine) implements it over its per-node stores; the member hosting
// the Service handler imports the snapshots the Repairer ships.
type Inventory interface {
	// Census returns every key resident on the member with its copy's
	// fingerprint, keys strictly ascending. The sweep treats a copy
	// whose fingerprint differs from the best resident one as missing,
	// so divergent partial replicas are healed, not trusted.
	Census(m overlay.Member) ([]Copy, error)
	// Export snapshots the member's entries for keys. A key the member
	// no longer holds is an error.
	Export(m overlay.Member, keys []string) ([]Item, error)
}

// RepairStats summarizes one repair sweep.
type RepairStats struct {
	KeysSwept       int // distinct keys seen across live stores
	UnderReplicated int // keys found on fewer members than their replica set requires
	CopiesSent      int // (key, replica) snapshots shipped
	RepairRPCs      int // batched repair calls issued (one per destination member)
}

// AuditStats summarizes a read-only coverage sweep.
type AuditStats struct {
	Keys            int // distinct keys seen across live stores
	UnderReplicated int // keys missing from at least one responsible member
	MissingCopies   int // total (key, member) placements missing
}

// FullyReplicated reports whether every surveyed key has a copy on every
// member of its replica set.
func (a AuditStats) FullyReplicated() bool { return a.UnderReplicated == 0 }

// Repairer restores R-way key coverage after churn: it sweeps the
// surviving members' stores, computes each key's current replica set on
// the (post-churn) fabric, and ships entry snapshots to responsible
// members that lack them — one batched export per holder, one batched
// repair RPC per destination, no re-indexing. Keys whose every replica
// departed are unrecoverable by sweep (nothing holds them anymore) and
// are invisible to it; they need a rebuild from the document owners.
type Repairer struct {
	Fabric overlay.Fabric
	Inv    Inventory
	R      int // replication factor to restore
}

// deficit is one under-replicated key found by the sweep: the freshest
// holder to export from and the replica-set members whose copy is
// missing or stale.
type deficit struct {
	key    string
	holder overlay.Member
	to     []overlay.Member
}

// sweep is the one pass behind Repair, CatchUp and Audit. It takes each
// member's census once, in fabric order, and then works in memory: for
// every distinct key — members in fabric order, keys ascending — it
// finds the freshest copy (best fingerprint among the member the key
// was found on and the replica set) and the replica-set members that
// lack it or hold a stale or divergent one. A member that left the view
// mid-sweep is skipped; a census that fails for a member still in the
// view fails the sweep, because a missing answer is not a missing copy.
func sweep(f overlay.Fabric, inv Inventory, r int) (deficits []deficit, keys int, err error) {
	var swept []overlay.Member
	censuses := make(map[overlay.ID][]Copy)
	for _, m := range f.Members() {
		copies, err := inv.Census(m)
		if _, member := f.View().Lookup(m.ID()); !member {
			continue
		}
		if err != nil {
			return nil, 0, fmt.Errorf("replica: census of %s: %w", m.Addr(), err)
		}
		swept = append(swept, m)
		censuses[m.ID()] = copies
	}
	type holding struct {
		fp Fingerprint
		ok bool
	}
	seen := make(map[string]bool)
	var held []holding // the current key's copies, per owner
	for _, m := range swept {
		for _, c := range censuses[m.ID()] {
			if seen[c.Key] {
				continue
			}
			seen[c.Key] = true
			keys++
			owners := f.OwnersOf(c.Key, r)
			best, bestFP := m, c.FP
			held = held[:0]
			for _, owner := range owners {
				fp, ok := lookup(censuses[owner.ID()], c.Key)
				if ok && fp.Better(bestFP) {
					best, bestFP = owner, fp
				}
				held = append(held, holding{fp, ok})
			}
			var missing []overlay.Member
			for i, owner := range owners {
				if !held[i].ok || held[i].fp != bestFP {
					missing = append(missing, owner)
				}
			}
			if len(missing) > 0 {
				deficits = append(deficits, deficit{key: c.Key, holder: best, to: missing})
			}
		}
	}
	return deficits, keys, nil
}

// lookup finds key's fingerprint in an ascending census.
func lookup(census []Copy, key string) (Fingerprint, bool) {
	i, ok := slices.BinarySearchFunc(census, key, func(c Copy, k string) int { return strings.Compare(c.Key, k) })
	if !ok {
		return Fingerprint{}, false
	}
	return census[i].FP, true
}

// Audit performs a read-only store sweep, reporting replica coverage
// under the fabric's current membership and placement.
func Audit(f overlay.Fabric, inv Inventory, r int) (AuditStats, error) {
	deficits, keys, err := sweep(f, inv, max(r, 1))
	if err != nil {
		return AuditStats{}, err
	}
	st := AuditStats{Keys: keys, UnderReplicated: len(deficits)}
	for _, d := range deficits {
		st.MissingCopies += len(d.to)
	}
	return st, nil
}

// Repair sweeps the inventory and re-replicates every under-replicated
// key. Once every batch has landed, the replica sets are whole again
// under the swept membership, and the fabric is told which membership
// that was — the one place its repair debt is settled, whoever started
// the sweep. A departure that landed mid-sweep changed the membership,
// so its debt stays owed.
func (rp *Repairer) Repair() (RepairStats, error) {
	swept := rp.Fabric.View().Addrs()
	st, err := rp.repair(nil)
	if err != nil {
		return st, err
	}
	if err := rp.Fabric.MarkRepaired(swept); err != nil {
		return st, fmt.Errorf("replica: repaired, but not recorded: %w", err)
	}
	return st, nil
}

// CatchUp restores ONE member after a warm restart: the same sweep as
// Repair, restricted to the deficits that name self — the keys in its
// own replica sets whose freshest copy beats (or is absent from) its
// restored store. The fresh copies ship to self in one batched Service
// RPC; nothing is pushed to any other member, nothing is re-indexed and
// no repair debt is settled. A member restarting with an intact,
// up-to-date store pulls zero copies; UnderReplicated counts the keys it
// was behind on.
func (rp *Repairer) CatchUp(self overlay.Member) (RepairStats, error) {
	return rp.repair(self)
}

// repair runs the sweep and ships each deficit's freshest copy to the
// replica-set members that lack it — only to self when self is set. The
// holders export their keys in one call each; the copies go out batched
// per destination member, one Service RPC per batch.
func (rp *Repairer) repair(self overlay.Member) (RepairStats, error) {
	deficits, keys, err := sweep(rp.Fabric, rp.Inv, max(rp.R, 1))
	st := RepairStats{KeysSwept: keys}
	if err != nil {
		return st, err
	}
	if self != nil {
		kept := deficits[:0]
		for _, d := range deficits {
			if i := slices.IndexFunc(d.to, func(o overlay.Member) bool { return o.ID() == self.ID() }); i >= 0 {
				d.to = d.to[i : i+1]
				kept = append(kept, d)
			}
		}
		deficits = kept
	}
	st.UnderReplicated = len(deficits)

	keysOf := make(map[overlay.ID][]string)
	var holders []overlay.Member
	for _, d := range deficits {
		if _, ok := keysOf[d.holder.ID()]; !ok {
			holders = append(holders, d.holder)
		}
		keysOf[d.holder.ID()] = append(keysOf[d.holder.ID()], d.key)
	}
	exported := make(map[string][]byte, len(deficits))
	for _, h := range holders {
		items, err := rp.Inv.Export(h, keysOf[h.ID()])
		if err != nil {
			return st, fmt.Errorf("replica: export from %s: %w", h.Addr(), err)
		}
		for _, it := range items {
			exported[it.Key] = it.Blob
		}
	}

	batches := make(map[string][]Item)
	var addrs []string
	for _, d := range deficits {
		blob, ok := exported[d.key]
		if !ok {
			return st, fmt.Errorf("replica: holder %s did not export %q", d.holder.Addr(), d.key)
		}
		for _, owner := range d.to {
			addr := owner.Addr()
			if _, seen := batches[addr]; !seen {
				addrs = append(addrs, addr)
			}
			batches[addr] = append(batches[addr], Item{Key: d.key, Blob: blob})
			st.CopiesSent++
		}
	}
	sort.Strings(addrs)
	for _, addr := range addrs {
		if _, err := rp.Fabric.CallService(addr, Service, EncodeBatch(nil, batches[addr])); err != nil {
			return st, fmt.Errorf("replica: repair batch to %s: %w", addr, err)
		}
		st.RepairRPCs++
	}
	return st, nil
}
