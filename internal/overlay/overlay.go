// Package overlay implements the structured P2P overlay hosting the global
// index: members placed on a 64-bit identifier ring by a hash of their
// address, keys owned by their ring successor, and service RPC between
// members. Every member's membership is one View (see Membership), so a
// key's owners resolve from that table at zero routing hops.
//
// The paper's prototype ran on P-Grid; the indexing/retrieval model only
// requires the DHT abstraction "key → responsible peer", and the
// scalability analysis explicitly excludes overlay routing traffic ("we
// do not analyze the total traffic between the peers related to P2P
// network maintenance and routing"). Resolving owners from the
// membership table therefore reproduces every accounted quantity.
package overlay

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/transport"
)

// ID is a position on the identifier ring [0, 2^64).
type ID uint64

// HashKey maps an index key to its ring position (SHA-1 prefix, the
// classical Chord choice).
func HashKey(key string) ID {
	sum := sha1.Sum([]byte(key))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// HashNode derives a member's ring position from its address. Every
// Fabric (the in-process Network and the multi-process cluster client)
// places members with it, so they agree on every key's owners.
func HashNode(addr string) ID {
	sum := sha1.Sum([]byte("node:" + addr))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// Node is one peer's overlay state: its ring position, its address and
// the services the index layers registered on it.
type Node struct {
	id   ID
	addr string

	mu       sync.RWMutex
	services map[string]transport.Handler
}

// ID returns the node's ring position.
func (n *Node) ID() ID { return n.id }

// Addr returns the node's transport address.
func (n *Node) Addr() string { return n.addr }

// Handle registers a named service handler on the node. The index layers
// (HDK engine, single-term baseline) register their RPCs through this.
func (n *Node) Handle(service string, h transport.Handler) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.services[service] = h
}

// Network is a set of overlay nodes sharing one transport. Its
// membership is a View: the embedded Membership answers placement
// (successor lists) and churn.
type Network struct {
	tr transport.Transport
	Membership
}

// NewNetwork creates an empty overlay over the given transport.
func NewNetwork(tr transport.Transport) *Network { return &Network{tr: tr} }

// AddNode creates a node with the given address, binds it on the
// transport, and splices it into the ring. It is the "peer joins the
// network" operation of the paper's growth protocol (4 peers added per
// experimental run).
func (n *Network) AddNode(addr string) (*Node, error) {
	node := &Node{services: make(map[string]transport.Handler)}
	bound, err := n.tr.Listen(addr, node.dispatch)
	if err != nil {
		return nil, err
	}
	// The id is derived from the bound address: with TCP, "host:0"
	// resolves to a concrete port only at bind time.
	node.addr = bound
	node.id = HashNode(bound)
	if _, dup := n.Apply(func(v View) View { return v.Join(node) }).Lookup(node.id); dup {
		return nil, fmt.Errorf("overlay: id collision for %q", addr)
	}
	return node, nil
}

// TransportStats exposes the underlying traffic counters.
func (n *Network) TransportStats() transport.Stats { return n.tr.Stats() }

// maxTransientRetries bounds re-sends of calls dropped by the network
// (transport.ErrTransient). Handler errors are never retried: the remote
// rejected the request, re-sending cannot help.
const maxTransientRetries = 8

// CallService invokes a named service on the node bound at addr,
// retrying transient transport failures.
func (n *Network) CallService(addr, service string, req []byte) ([]byte, error) {
	return transport.CallRetry(n.tr, addr, EncodeEnvelope(service, req), maxTransientRetries)
}
