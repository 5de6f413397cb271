package overlay

import "repro/internal/transport"

// Member is one participant of the overlay, as seen by the index
// layers: a ring position, a transport address, and a service registry.
// *Node implements it; so does the cluster client's daemon stub.
type Member interface {
	ID() ID
	Addr() string
	Handle(service string, h transport.Handler)
}

// Fabric is the DHT abstraction the paper's model actually requires:
// "key → responsible peers" plus service RPC. Both implementations — the
// in-process Network and the multi-process cluster client — keep their
// membership in one Membership, so ownership resolves from a local View
// at zero routing hops and every caller gets one placement.
//
// The membership is also where churn is recorded. Its View carries the
// repair debt every read path consults: while View().Owed(), only a
// key's primary is known to hold a full copy, so reads must not be
// placed on other replicas. RemoveNode (a crash) raises the debt, Leave
// (a graceful departure whose entries were handed off) does not, and
// replica.Repairer.Repair settles it with MarkRepaired, passing the
// member set it swept — a departure that lands mid-sweep stays owed.
type Fabric interface {
	// Members returns the current membership in ring order.
	Members() []Member
	// Size returns the membership count.
	Size() int
	// OwnerOf returns the member responsible for key (false on an empty
	// overlay): its ring successor.
	OwnerOf(key string) (Member, bool)
	// OwnersOf returns the r distinct members jointly responsible for
	// key, primary (OwnerOf) first, then its ring successors — the
	// failover order, so losing the primary promotes the next entry.
	// Fewer than r members are returned when the overlay is smaller.
	OwnersOf(key string, r int) []Member
	// CallService invokes a named service on the member bound at addr.
	CallService(addr, service string, req []byte) ([]byte, error)
	// View returns the current membership with its repair debt.
	View() View
	// RemoveNode records a crashed member's departure.
	RemoveNode(ID) bool
	// Leave records a graceful departure.
	Leave(ID) bool
	// MarkRepaired settles the debt if swept is the current member set.
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

// Compile-time checks.
var (
	_ Fabric = (*Network)(nil)
	_ Member = (*Node)(nil)
)
