// Package replica adds search failover support and churn repair on top
// of an overlay.Fabric's R-way placement. The paper's prototype ran on
// P-Grid, whose trie maintains structural replicas per path so retrieval
// survives peer departure; this package reproduces that availability
// property on the ring's successor lists (overlay.Fabric.OwnersOf):
//
//   - the repair wire codec ships opaque index-entry snapshots between
//     replicas over the fabric's service RPC;
//   - Repairer sweeps an index inventory after churn and re-replicates
//     under-replicated keys, restoring R-way coverage without a rebuild.
//
// The package is index-agnostic: it never inspects entry payloads, so
// any layer that can export/import its per-key state (the HDK engine,
// the single-term baseline) can replicate through it.
//
// OwnersOf is deliberately the single definition of a key's replica
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

	"repro/internal/wire"
)

// Service is the fabric service name replicated index layers register
// for repair traffic: the request is an encoded repair batch, the
// response is empty.
const Service = "replica.repair"

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
