// Package replica adds R-way key placement, search failover support and
// churn repair on top of any overlay.Fabric. The paper's prototype ran
// on P-Grid, whose trie maintains structural replicas per path so
// retrieval survives peer departure; this package reproduces that
// availability property for every substrate behind the Fabric interface:
//
//   - Owners resolves a key to its R distinct responsible members
//     (successor-list placement on fabrics implementing
//     overlay.MultiOwner, a membership-order fallback otherwise);
//   - the repair wire codec ships opaque index-entry snapshots between
//     replicas over the fabric's service RPC;
//   - Repairer sweeps an index inventory after churn and re-replicates
//     under-replicated keys, restoring R-way coverage without a rebuild.
//
// The package is index-agnostic: it never inspects entry payloads, so
// any layer that can export/import its per-key state (the HDK engine,
// the single-term baseline) can replicate through it.
//
// Owners is deliberately the single definition of a key's replica
// chain: the engine's insert fan-out writes to all of it, the repair
// sweep audits all of it, and every read path — the client-side search
// and the daemon-side hdk.search coordinator (core.Coordinator over a
// cluster fabric) — reads ONE member of it and fails over along the
// rest. Which member is read first is the reader's choice, not this
// package's: core.ReadPlan prefers the coordinating member's own copy,
// then the fewest other members, and keeps the chain's order behind the
// chosen reader. So write placement and every read path agree on where
// copies live, while the order here promises only failover order and
// that the first entry is the member OwnerOf names.
package replica

import (
	"encoding/binary"
	"errors"

	"repro/internal/overlay"
	"repro/internal/wire"
)

// Service is the fabric service name replicated index layers register
// for repair traffic: the request is an encoded repair batch, the
// response is empty.
const Service = "replica.repair"

// Owners resolves the replica set of a key: up to r distinct members,
// primary (the member OwnerOf names) first, in failover order. Fabrics
// implementing overlay.MultiOwner define their own placement (successor
// lists on Chord, path neighbors on P-Grid); any other fabric gets the
// primary followed by the next members in Members() order — which for a
// ring-ordered membership is the same successor-list scheme. Fewer than
// r members are returned when the overlay is smaller than r.
func Owners(f overlay.Fabric, key string, r int) []overlay.Member {
	if r < 1 {
		r = 1
	}
	if mo, ok := f.(overlay.MultiOwner); ok {
		return mo.OwnersOf(key, r)
	}
	primary, ok := f.OwnerOf(key)
	if !ok {
		return nil
	}
	members := f.Members()
	if r > len(members) {
		r = len(members)
	}
	start := 0
	for i, m := range members {
		if m.ID() == primary.ID() {
			start = i
			break
		}
	}
	out := make([]overlay.Member, 0, r)
	for k := 0; k < r; k++ {
		out = append(out, members[(start+k)%len(members)])
	}
	return out
}

// Item is one key's replica payload inside a repair batch: the entry
// snapshot is opaque to this package — the index layer that exported it
// is the one that imports it on the receiving member.
type Item struct {
	Key  string
	Blob []byte
}

// ErrCorrupt is returned when a repair batch fails to decode.
var ErrCorrupt = errors.New("replica: corrupt repair batch")

// EncodeBatch appends a count-prefixed repair batch to buf.
func EncodeBatch(buf []byte, items []Item) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(items)))
	for _, it := range items {
		buf = wire.AppendString(buf, it.Key)
		buf = wire.AppendBytes(buf, it.Blob)
	}
	return buf
}

// DecodeBatch parses a repair batch.
func DecodeBatch(buf []byte) ([]Item, error) {
	r := wire.NewReader(buf)
	out := make([]Item, r.Count(2)) // an item is at least two length prefixes
	for i := range out {
		out[i].Key = r.String(r.Uvarint())
		out[i].Blob = append([]byte(nil), r.Bytes(r.Uvarint())...)
	}
	if !r.Done() {
		return nil, ErrCorrupt
	}
	return out, nil
}
