package replica

import (
	"fmt"
	"sort"

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

// Inventory is the Repairer's view of the replicated index: which keys
// are resident on which member, a freshness fingerprint per copy, and an
// opaque exportable snapshot per (member, key). The index layer (e.g.
// the HDK engine) implements it over its per-node stores; the member
// hosting the Service handler imports the snapshots the Repairer ships.
type Inventory interface {
	// Keys returns the resident keys of a member's store in a
	// deterministic order (nil for members without a store).
	Keys(m overlay.Member) []string
	// Fingerprint reports whether the member holds the key and, if so,
	// its copy's freshness identity. The sweep treats a copy whose
	// fingerprint differs from the best resident one as missing, so
	// divergent partial replicas are healed, not trusted.
	Fingerprint(m overlay.Member, key string) (fp Fingerprint, ok bool)
	// Export snapshots one resident entry for shipping to a replica.
	Export(m overlay.Member, key string) ([]byte, bool)
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
// members that lack them — one batched repair RPC per destination, no
// re-indexing. Keys whose every replica departed are unrecoverable by
// sweep (nothing holds them anymore) and are invisible to it; they need
// a rebuild from the document owners.
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

// sweep is shared by Repair and Audit: for every distinct key resident
// on a live member, find the freshest copy (best fingerprint among the
// member it was discovered on and the replica set) and the replica set
// members that lack it or hold a stale or divergent one.
func sweep(f overlay.Fabric, inv Inventory, r int) (deficits []deficit, keys int) {
	seen := make(map[string]bool)
	for _, m := range f.Members() {
		for _, key := range inv.Keys(m) {
			if seen[key] {
				continue
			}
			seen[key] = true
			keys++
			owners := Owners(f, key, r)
			best, bestFP, bestOK := m, Fingerprint{}, false
			if fp, ok := inv.Fingerprint(m, key); ok {
				bestFP, bestOK = fp, true
			}
			for _, owner := range owners {
				if fp, ok := inv.Fingerprint(owner, key); ok && (!bestOK || fp.Better(bestFP)) {
					best, bestFP, bestOK = owner, fp, true
				}
			}
			var missing []overlay.Member
			for _, owner := range owners {
				if fp, ok := inv.Fingerprint(owner, key); !ok || fp != bestFP {
					missing = append(missing, owner)
				}
			}
			if len(missing) > 0 {
				deficits = append(deficits, deficit{key: key, holder: best, to: missing})
			}
		}
	}
	return deficits, keys
}

// Audit performs a read-only store sweep, reporting replica coverage
// under the fabric's current membership and placement.
func Audit(f overlay.Fabric, inv Inventory, r int) AuditStats {
	deficits, keys := sweep(f, inv, r)
	st := AuditStats{Keys: keys, UnderReplicated: len(deficits)}
	for _, d := range deficits {
		st.MissingCopies += len(d.to)
	}
	return st
}

// Repair sweeps the inventory and re-replicates every under-replicated
// key, batching the snapshots per destination member and shipping each
// batch with one Service RPC over the fabric. Once every batch has
// landed, the replica sets are whole again under the swept membership,
// and a fabric that tracks departures (overlay.Churn) is told which
// membership that was — the one place its repair debt is settled,
// whoever started the sweep. A departure that landed mid-sweep changed
// the membership, so its debt stays owed.
func (rp *Repairer) Repair() (RepairStats, error) {
	r := rp.R
	if r < 1 {
		r = 1
	}
	churn, tracked := rp.Fabric.(overlay.Churn)
	var swept []string
	if tracked {
		swept = churn.View().Addrs()
	}
	deficits, keys := sweep(rp.Fabric, rp.Inv, r)
	st := RepairStats{KeysSwept: keys, UnderReplicated: len(deficits)}
	batches := make(map[string][]Item)
	var addrs []string
	for _, d := range deficits {
		blob, ok := rp.Inv.Export(d.holder, d.key)
		if !ok {
			return st, fmt.Errorf("replica: holder %s lost %q mid-repair", d.holder.Addr(), d.key)
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
	if tracked {
		if err := churn.MarkRepaired(swept); err != nil {
			return st, fmt.Errorf("replica: repaired, but not recorded: %w", err)
		}
	}
	return st, nil
}

// CatchUpStats summarizes one member's warm-rejoin delta.
type CatchUpStats struct {
	KeysOwned    int // keys in replica sets self belongs to, seen on any other live member
	Stale        int // of those, keys whose local copy was missing, behind or divergent
	CopiesPulled int // entry snapshots shipped to self (== Stale unless an export raced away)
	PullRPCs     int // batched import calls issued to self (0 or 1)
}

// CatchUp restores ONE member after a warm restart: instead of the full
// Repair sweep (which re-replicates every under-replicated key anywhere
// in the cluster), it pulls only the delta this member missed while it
// was down — the keys in its own replica sets whose freshest resident
// copy beats (or is absent from) its restored store. The fresh copies
// ship to self in a single batched Service RPC; nothing is pushed to any
// other member and nothing is re-indexed. A member restarting with an
// intact, up-to-date store pulls zero copies.
func (rp *Repairer) CatchUp(self overlay.Member) (CatchUpStats, error) {
	r := rp.R
	if r < 1 {
		r = 1
	}
	var st CatchUpStats
	seen := make(map[string]bool)
	var items []Item
	for _, m := range rp.Fabric.Members() {
		if m.ID() == self.ID() {
			continue
		}
		for _, key := range rp.Inv.Keys(m) {
			if seen[key] {
				continue
			}
			seen[key] = true
			owners := Owners(rp.Fabric, key, r)
			mine := false
			for _, o := range owners {
				if o.ID() == self.ID() {
					mine = true
					break
				}
			}
			if !mine {
				continue
			}
			st.KeysOwned++
			// Freshest copy among the holder that surfaced the key and
			// the replica set (self included: an up-to-date restored copy
			// must win and cost nothing). Self's fingerprint is captured
			// in the same pass — one inventory RPC per (owner, key).
			best, bestFP, bestOK := m, Fingerprint{}, false
			if fp, ok := rp.Inv.Fingerprint(m, key); ok {
				bestFP, bestOK = fp, true
			}
			var selfFP Fingerprint
			selfOK := false
			for _, o := range owners {
				fp, ok := rp.Inv.Fingerprint(o, key)
				if o.ID() == self.ID() {
					selfFP, selfOK = fp, ok
				}
				if ok && (!bestOK || fp.Better(bestFP)) {
					best, bestFP, bestOK = o, fp, true
				}
			}
			if !bestOK || best.ID() == self.ID() {
				continue
			}
			if selfOK && selfFP == bestFP {
				continue
			}
			st.Stale++
			blob, ok := rp.Inv.Export(best, key)
			if !ok {
				return st, fmt.Errorf("replica: holder %s lost %q mid-catch-up", best.Addr(), key)
			}
			items = append(items, Item{Key: key, Blob: blob})
		}
	}
	if len(items) > 0 {
		if _, err := rp.Fabric.CallService(self.Addr(), Service, EncodeBatch(nil, items)); err != nil {
			return st, fmt.Errorf("replica: catch-up batch to %s: %w", self.Addr(), err)
		}
		st.CopiesPulled = len(items)
		st.PullRPCs = 1
	}
	return st, nil
}
