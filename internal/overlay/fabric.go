package overlay

import (
	"fmt"

	"repro/internal/transport"
)

// Member is one participant of a structured overlay, as seen by the
// index layers: an identifier, a transport address, and a service
// registry. *Node implements it; so does the P-Grid peer type.
type Member interface {
	ID() ID
	Addr() string
	Handle(service string, h transport.Handler)
}

// Fabric is the DHT abstraction the paper's model actually requires:
// "key → responsible peer" with multi-hop routing, plus service RPC. The
// Chord-style Network and the P-Grid trie both implement it, so the HDK
// engine runs unchanged on either substrate.
type Fabric interface {
	// Members returns the current membership in deterministic order.
	Members() []Member
	// OwnerOf returns the member responsible for key (false on an empty
	// overlay) without routing — the ground-truth mapping.
	OwnerOf(key string) (Member, bool)
	// Route finds the owner of key starting from a member, returning
	// the hop count.
	Route(from Member, key string) (Member, int, error)
	// CallService invokes a named service on the member bound at addr.
	CallService(addr, service string, req []byte) ([]byte, error)
	// Size returns the membership count.
	Size() int
}

// Churn is optionally implemented by fabrics supporting node departure.
// A Churn fabric keeps its membership as a View (see Membership), whose
// repair debt every read path consults: while View().Owed(), only a
// key's primary is known to hold a full copy, so reads must not be
// placed on other replicas. RemoveNode (a crash) raises the debt, Leave
// (a graceful departure whose entries were handed off) does not, and
// replica.Repairer.Repair settles it with MarkRepaired, passing the
// member set it swept — a departure that lands mid-sweep stays owed.
type Churn interface {
	RemoveNode(ID) bool
	Leave(ID) bool
	View() View
	MarkRepaired(swept []string) error
}

// RemoteStore is optionally implemented by members whose index store
// lives in ANOTHER process: the index layer must not host a local store
// for them — their services are reached through the fabric's RPC instead
// (the hdknode daemon serves them over TCP). Handle on such a member
// registers a caller-side service (e.g. the peer's notify handler), which
// the fabric dispatches locally.
type RemoteStore interface {
	// RemoteStore reports that the member's store is hosted elsewhere.
	RemoteStore() bool
}

// IsRemote reports whether a member's index store is hosted in another
// process.
func IsRemote(m Member) bool {
	r, ok := m.(RemoteStore)
	return ok && r.RemoteStore()
}

// MultiOwner is optionally implemented by fabrics that can name the R
// distinct members jointly responsible for a key — the placement ground
// truth behind replicated index storage. The primary owner (the member
// OwnerOf returns) comes first; the remaining members are the fabric's
// natural failover order (ring successors on Chord, path-order neighbors
// on the P-Grid trie), so losing the primary promotes the next entry.
// Fewer than r members are returned when the overlay is smaller than r.
type MultiOwner interface {
	OwnersOf(key string, r int) []Member
}

// LocalResolver is optionally implemented by fabrics whose key
// ownership resolves from a local membership table: Route, OwnerOf and
// OwnersOf answer in-process with zero routing hops. A caller resolving
// many keys at once can then do so in its own loop — fanning table
// lookups out over goroutines costs more than the lookups. Fabrics whose
// Route is real per-hop transport calls (the Chord ring, the P-Grid
// trie) do not implement it and keep the parallel routing pass.
type LocalResolver interface {
	// ResolvesLocally is a marker: implementing it is the statement that
	// ownership resolution never touches the transport.
	ResolvesLocally()
}

// Route implements Fabric.
func (n *Network) Route(from Member, key string) (Member, int, error) {
	start, ok := from.(*Node)
	if !ok {
		start, ok = n.node(from.ID())
		if !ok {
			return nil, 0, fmt.Errorf("overlay: route from unknown member %x", from.ID())
		}
	}
	owner, hops, err := n.Lookup(start, key)
	if err != nil {
		return nil, hops, err
	}
	return owner, hops, nil
}

// Compile-time checks.
var (
	_ Fabric     = (*Network)(nil)
	_ Member     = (*Node)(nil)
	_ Churn      = (*Network)(nil)
	_ MultiOwner = (*Network)(nil)
)
