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
	"sort"
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

// Network is a set of overlay nodes sharing one transport.
type Network struct {
	tr transport.Transport

	mu     sync.RWMutex
	nodes  map[ID]*Node
	sorted []ID // ring order, maintained on join/leave
	// unrepaired: a node left and no repair sweep has completed since
	// (Churn's repair debt).
	unrepaired bool

	lookupMu      sync.Mutex
	lookupCount   uint64
	lookupHopsSum uint64
}

// NewNetwork creates an empty overlay over the given transport.
func NewNetwork(tr transport.Transport) *Network {
	return &Network{tr: tr, nodes: make(map[ID]*Node)}
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

	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[node.id]; dup {
		return nil, fmt.Errorf("overlay: id collision for %q", addr)
	}
	n.nodes[node.id] = node
	n.sorted = append(n.sorted, node.id)
	sort.Slice(n.sorted, func(i, j int) bool { return n.sorted[i] < n.sorted[j] })
	n.rebuildRoutingLocked()
	return node, nil
}

// rebuildRoutingLocked recomputes successors and finger tables for every
// node from the global membership view. A production DHT converges to the
// same state through periodic stabilization; rebuilding directly keeps the
// simulation deterministic, and the paper's accounting excludes the
// maintenance traffic this would generate.
func (n *Network) rebuildRoutingLocked() {
	for _, node := range n.nodes {
		node.mu.Lock()
		node.succ = n.successorLocked(node.id + 1)
		for i := 0; i < fingerBits; i++ {
			node.fingers[i] = n.successorLocked(node.id + 1<<uint(i))
		}
		node.mu.Unlock()
	}
}

// successorLocked returns the first node id at or after x on the ring.
func (n *Network) successorLocked(x ID) ID {
	i := sort.Search(len(n.sorted), func(i int) bool { return n.sorted[i] >= x })
	if i == len(n.sorted) {
		i = 0
	}
	return n.sorted[i]
}

// RemoveNode takes a node out of the ring (graceful leave) and refreshes
// the remaining nodes' routing state. The node's transport binding is
// left in place — in a real deployment it dies with the process; in the
// simulation nothing routes to it anymore. Returns false if the node is
// not a member.
func (n *Network) RemoveNode(id ID) bool {
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, ok := n.nodes[id]; !ok {
		return false
	}
	delete(n.nodes, id)
	for i, v := range n.sorted {
		if v == id {
			n.sorted = append(n.sorted[:i], n.sorted[i+1:]...)
			break
		}
	}
	n.rebuildRoutingLocked()
	n.unrepaired = true
	return true
}

// Unrepaired implements Churn.
func (n *Network) Unrepaired() bool {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.unrepaired
}

// MarkRepaired implements Churn.
func (n *Network) MarkRepaired() error {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.unrepaired = false
	return nil
}

// Size returns the number of nodes.
func (n *Network) Size() int {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return len(n.nodes)
}

// Nodes returns the nodes in ring order.
func (n *Network) Nodes() []*Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]*Node, 0, len(n.sorted))
	for _, id := range n.sorted {
		out = append(out, n.nodes[id])
	}
	return out
}

// node looks up a node by id.
func (n *Network) node(id ID) (*Node, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	v, ok := n.nodes[id]
	return v, ok
}

// Owner returns the node responsible for the key (its successor on the
// ring) without routing — the ground truth used by tests and by callers
// that only need the mapping.
func (n *Network) Owner(key string) *Node {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.sorted) == 0 {
		return nil
	}
	return n.nodes[n.successorLocked(HashKey(key))]
}

// OwnersOf implements MultiOwner: the replica set of a key is its
// successor list — the first r distinct nodes at or after the key's ring
// position, primary first (the classical Chord replication scheme). The
// scheme is churn-stable: when the primary leaves, the key's new
// successor is exactly the old second replica, so routing lands on a
// node that already holds the replicated data.
func (n *Network) OwnersOf(key string, r int) []Member {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.sorted) == 0 || r < 1 {
		return nil
	}
	if r > len(n.sorted) {
		r = len(n.sorted)
	}
	h := HashKey(key)
	start := sort.Search(len(n.sorted), func(i int) bool { return n.sorted[i] >= h })
	out := make([]Member, 0, r)
	for k := 0; k < r; k++ {
		out = append(out, n.nodes[n.sorted[(start+k)%len(n.sorted)]])
	}
	return out
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
