// Package overlay implements the structured P2P overlay hosting the global
// index: a Chord-style distributed hash table with 64-bit ring positions,
// finger tables, iterative O(log N) lookups and per-lookup hop accounting.
//
// The paper's prototype ran on P-Grid; the indexing/retrieval model only
// requires the DHT abstraction "key → responsible peer" with logarithmic
// routing, and the scalability analysis explicitly excludes overlay
// maintenance traffic ("we do not analyze the total traffic between the
// peers related to P2P network maintenance and routing"). A Chord-style
// ring therefore reproduces every accounted quantity; internal/pgrid
// provides the paper's own substrate behind the same Fabric interface.
package overlay

import (
	"crypto/sha1"
	"encoding/binary"
	"fmt"
	"math/bits"
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

// hashNode derives a node's ring position from its address.
func hashNode(addr string) ID {
	sum := sha1.Sum([]byte("node:" + addr))
	return ID(binary.BigEndian.Uint64(sum[:8]))
}

// HashNode exposes the node-position hash so alternative Fabric
// implementations (the multi-process cluster fabric) place members on
// exactly the same ring as the in-process Chord overlay.
func HashNode(addr string) ID { return hashNode(addr) }

// between reports whether x lies in the half-open ring interval (a, b].
func between(a, b, x ID) bool {
	if a < b {
		return x > a && x <= b
	}
	return x > a || x <= b // interval wraps around zero
}

const fingerBits = 64

// Node is one peer's overlay state.
type Node struct {
	id   ID
	addr string
	net  *Network

	mu       sync.RWMutex
	succ     ID
	fingers  [fingerBits]ID // fingers[i] = successor(id + 2^i)
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
// membership is a View: the embedded Membership implements Churn and
// MultiOwner (successor-list placement), and every node's successor and
// fingers are derived from each new view.
type Network struct {
	tr transport.Transport
	Membership

	lookupMu      sync.Mutex
	lookupCount   uint64
	lookupHopsSum uint64
}

// NewNetwork creates an empty overlay over the given transport.
func NewNetwork(tr transport.Transport) *Network {
	n := &Network{tr: tr}
	n.OnChange = rebuildRouting
	return n
}

// AddNode creates a node with the given address, binds it on the
// transport, and splices it into the ring, refreshing routing state. It
// is the "peer joins the network" operation of the paper's growth
// protocol (4 peers added per experimental run).
func (n *Network) AddNode(addr string) (*Node, error) {
	node := &Node{
		net:      n,
		services: make(map[string]transport.Handler),
	}
	bound, err := n.tr.Listen(addr, node.dispatch)
	if err != nil {
		return nil, err
	}
	// The id is derived from the bound address: with TCP, "host:0"
	// resolves to a concrete port only at bind time.
	node.addr = bound
	node.id = hashNode(bound)
	if _, dup := n.Apply(func(v View) View { return v.Join(node) }).Lookup(node.id); dup {
		return nil, fmt.Errorf("overlay: id collision for %q", addr)
	}
	return node, nil
}

// rebuildRouting recomputes successors and finger tables for every node
// from the membership view. A production DHT converges to the same state
// through periodic stabilization; rebuilding directly keeps the
// simulation deterministic, and the paper's accounting excludes the
// maintenance traffic this would generate. A node that left keeps its
// stale tables: nothing routes to it anymore.
func rebuildRouting(v View) {
	for _, m := range v.members {
		node := m.(*Node)
		node.mu.Lock()
		node.succ = v.successor(node.id + 1).ID()
		for i := 0; i < fingerBits; i++ {
			node.fingers[i] = v.successor(node.id + 1<<uint(i)).ID()
		}
		node.mu.Unlock()
	}
}

// Nodes returns the nodes in ring order.
func (n *Network) Nodes() []*Node {
	v := n.View()
	out := make([]*Node, len(v.members))
	for i, m := range v.members {
		out[i] = m.(*Node)
	}
	return out
}

// Owner returns the node responsible for the key (its ring successor)
// without routing — the ground truth tests check routing against.
func (n *Network) Owner(key string) *Node {
	if m, ok := n.View().Owner(key); ok {
		return m.(*Node)
	}
	return nil
}

// node looks up a node by id.
func (n *Network) node(id ID) (*Node, bool) {
	m, ok := n.View().Lookup(id)
	if !ok {
		return nil, false
	}
	return m.(*Node), true
}

// Lookup routes from the given start node to the owner of key using
// iterative closest-preceding-finger routing and returns the owner along
// with the number of routing hops taken. Each hop is one transport
// message, so DHT routing cost shows up in the transport stats.
func (n *Network) Lookup(start *Node, key string) (*Node, int, error) {
	target := HashKey(key)
	cur := start
	hops := 0
	maxHops := 2*bits.Len(uint(n.Size())) + 8 // generous O(log N) bound
	for {
		resp, err := n.callRoute(cur, target)
		if err != nil {
			return nil, hops, err
		}
		hops++
		if resp.Found {
			owner, ok := n.node(resp.Next)
			if !ok {
				return nil, hops, fmt.Errorf("overlay: route returned unknown node %x", resp.Next)
			}
			n.recordLookup(hops)
			return owner, hops, nil
		}
		next, ok := n.node(resp.Next)
		if !ok {
			return nil, hops, fmt.Errorf("overlay: route via unknown node %x", resp.Next)
		}
		if hops > maxHops {
			return nil, hops, fmt.Errorf("overlay: routing did not converge after %d hops", hops)
		}
		cur = next
	}
}

func (n *Network) recordLookup(hops int) {
	n.lookupMu.Lock()
	n.lookupCount++
	n.lookupHopsSum += uint64(hops)
	n.lookupMu.Unlock()
}

// LookupStats returns the number of lookups performed and the mean hop
// count, for the routing-cost reports.
func (n *Network) LookupStats() (count uint64, meanHops float64) {
	n.lookupMu.Lock()
	defer n.lookupMu.Unlock()
	if n.lookupCount == 0 {
		return 0, 0
	}
	return n.lookupCount, float64(n.lookupHopsSum) / float64(n.lookupCount)
}

// TransportStats exposes the underlying traffic counters.
func (n *Network) TransportStats() transport.Stats { return n.tr.Stats() }

// maxTransientRetries bounds re-sends of calls dropped by the network
// (transport.ErrTransient). Handler errors are never retried: the remote
// rejected the request, re-sending cannot help.
const maxTransientRetries = 8

// callRetry performs a transport call, retrying transient drops.
func (n *Network) callRetry(addr string, payload []byte) ([]byte, error) {
	return transport.CallRetry(n.tr, addr, payload, maxTransientRetries)
}

// CallService invokes a named service on the node that owns the given
// overlay node address, retrying transient transport failures.
func (n *Network) CallService(addr, service string, req []byte) ([]byte, error) {
	return n.callRetry(addr, encodeEnvelope(service, req))
}
