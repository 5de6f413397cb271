// Package pgrid implements the structured overlay the paper's prototype
// actually ran on: P-Grid (Aberer et al.), a binary-trie keyspace
// partitioning where every peer is responsible for the keys sharing its
// binary path, and routing resolves one disagreeing bit per hop using a
// routing table with one reference per path level.
//
// The package implements overlay.Fabric, so the HDK engine (and any
// other index layer) runs unchanged on either this trie or the
// Chord-style ring in internal/overlay — the reproduction's claim that
// the model only needs the "key → responsible peer" abstraction is
// thereby executable.
package pgrid

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
	"sync"

	"repro/internal/overlay"
	"repro/internal/transport"
)

const routeService = "_pgrid.route"

// maxTransientRetries mirrors the Chord overlay's retry budget.
const maxTransientRetries = 8

// Peer is one P-Grid participant. It implements overlay.Member.
type Peer struct {
	id   overlay.ID
	addr string
	net  *Network

	mu       sync.RWMutex
	path     string         // binary path, e.g. "010"
	refs     map[int]string // level -> addr of a peer in the complementary subtree
	services map[string]transport.Handler
}

// ID implements overlay.Member (hash of the bound address, used by index
// layers to key their per-node stores).
func (p *Peer) ID() overlay.ID { return p.id }

// Addr implements overlay.Member.
func (p *Peer) Addr() string { return p.addr }

// Path returns the peer's binary trie path.
func (p *Peer) Path() string {
	p.mu.RLock()
	defer p.mu.RUnlock()
	return p.path
}

// Handle implements overlay.Member.
func (p *Peer) Handle(service string, h transport.Handler) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.services[service] = h
}

// dispatch demultiplexes the built-in routing service and index-layer
// services.
func (p *Peer) dispatch(req []byte) ([]byte, error) {
	service, payload, err := overlay.DecodeEnvelope(req)
	if err != nil {
		return nil, err
	}
	if service == routeService {
		return p.handleRoute(payload)
	}
	p.mu.RLock()
	h, ok := p.services[service]
	p.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("pgrid: peer %s: unknown service %q", p.addr, service)
	}
	return h(payload)
}

// handleRoute answers one routing step for the key bits in the payload:
// "F<addr>" when this peer owns the key, "N<addr>" naming the next hop.
func (p *Peer) handleRoute(keyBits []byte) ([]byte, error) {
	p.mu.RLock()
	defer p.mu.RUnlock()
	kb := string(keyBits)
	if strings.HasPrefix(kb, p.path) {
		return append([]byte{'F'}, p.addr...), nil
	}
	// First disagreeing bit level.
	level := 0
	for level < len(p.path) && level < len(kb) && p.path[level] == kb[level] {
		level++
	}
	ref, ok := p.refs[level]
	if !ok {
		return nil, fmt.Errorf("pgrid: peer %s has no reference at level %d", p.addr, level)
	}
	return append([]byte{'N'}, ref...), nil
}

// Network is a P-Grid trie over a transport. It implements
// overlay.Fabric. Its member set and repair debt are an overlay.View
// (the embedded Membership implements overlay.Churn); the trie — every
// peer's path and routing table, and the path order — is derived from
// each new view.
type Network struct {
	tr transport.Transport
	overlay.Membership

	mu    sync.RWMutex
	peers []*Peer // path order, derived from the view

	lookupMu      sync.Mutex
	lookupCount   uint64
	lookupHopsSum uint64
}

// NewNetwork creates an empty trie over the transport.
func NewNetwork(tr transport.Transport) *Network {
	n := &Network{tr: tr}
	n.OnChange = n.rebuild
	return n
}

// AddPeer binds a new peer and rebuilds the trie: paths are reassigned
// by recursive bisection of the (deterministically ordered) peer set, so
// the trie stays balanced — the steady state P-Grid's exchange protocol
// converges to.
func (n *Network) AddPeer(addr string) (*Peer, error) {
	p := &Peer{net: n, services: make(map[string]transport.Handler)}
	bound, err := n.tr.Listen(addr, p.dispatch)
	if err != nil {
		return nil, err
	}
	p.addr = bound
	p.id = overlay.HashKey("pgrid:" + bound)
	if _, dup := n.Apply(func(v overlay.View) overlay.View { return v.Join(p) }).Lookup(p.id); dup {
		return nil, fmt.Errorf("pgrid: id collision for %q", addr)
	}
	return p, nil
}

// rebuild reassigns paths by recursive bisection of the view's peers and
// rebuilds every peer's routing table (one reference per level, pointing
// into the complementary subtree).
func (n *Network) rebuild(v overlay.View) {
	peers := make([]*Peer, 0, v.Size())
	for _, m := range v.Members() {
		peers = append(peers, m.(*Peer))
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].addr < peers[j].addr })
	assign(peers, "")
	// Keep the membership list in path order for deterministic Members().
	sort.Slice(peers, func(i, j int) bool { return peers[i].path < peers[j].path })
	// Routing tables: for each peer and each level l of its path, a
	// reference to the lexicographically smallest peer whose path agrees
	// on the first l bits and flips bit l.
	for _, p := range peers {
		p.mu.Lock()
		p.refs = make(map[int]string, len(p.path))
		for l := 0; l < len(p.path); l++ {
			want := p.path[:l] + flip(p.path[l])
			for _, q := range peers {
				if strings.HasPrefix(q.path, want) || strings.HasPrefix(want, q.path) {
					p.refs[l] = q.addr
					break
				}
			}
		}
		p.mu.Unlock()
	}
	n.mu.Lock()
	n.peers = peers
	n.mu.Unlock()
}

// assign recursively bisects the peer list, extending paths bit by bit.
// A single peer keeps the accumulated path (possibly "" for a 1-peer
// network, which owns the whole keyspace).
func assign(peers []*Peer, prefix string) {
	if len(peers) == 0 {
		return
	}
	if len(peers) == 1 {
		peers[0].mu.Lock()
		peers[0].path = prefix
		peers[0].mu.Unlock()
		return
	}
	mid := (len(peers) + 1) / 2
	assign(peers[:mid], prefix+"0")
	assign(peers[mid:], prefix+"1")
}

func flip(b byte) string {
	if b == '0' {
		return "1"
	}
	return "0"
}

// keyBits renders the first 64 bits of the key hash MSB-first, the key's
// position in the binary keyspace.
func keyBits(key string) string {
	h := uint64(overlay.HashKey(key))
	var b strings.Builder
	b.Grow(64)
	for i := 63; i >= 0; i-- {
		if h>>uint(i)&1 == 1 {
			b.WriteByte('1')
		} else {
			b.WriteByte('0')
		}
	}
	return b.String()
}

// --- overlay.Fabric -------------------------------------------------------

// Members implements overlay.Fabric (path order, not the View's ring
// order).
func (n *Network) Members() []overlay.Member {
	n.mu.RLock()
	defer n.mu.RUnlock()
	out := make([]overlay.Member, len(n.peers))
	for i, p := range n.peers {
		out[i] = p
	}
	return out
}

// OwnerOf implements overlay.Fabric: the peer whose path prefixes the
// key bits. Balanced construction guarantees exactly one.
func (n *Network) OwnerOf(key string) (overlay.Member, bool) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	kb := keyBits(key)
	for _, p := range n.peers {
		if strings.HasPrefix(kb, p.path) {
			return p, true
		}
	}
	return nil, false
}

// OwnersOf implements overlay.MultiOwner: the replica set of a key is
// the owning peer followed by the next peers in trie path order (with
// wrap-around) — the neighbors whose paths are closest to the key's
// subtree, P-Grid's structural-replica analogue of a successor list.
func (n *Network) OwnersOf(key string, r int) []overlay.Member {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if len(n.peers) == 0 || r < 1 {
		return nil
	}
	if r > len(n.peers) {
		r = len(n.peers)
	}
	kb := keyBits(key)
	start := 0
	for i, p := range n.peers {
		if strings.HasPrefix(kb, p.path) {
			start = i
			break
		}
	}
	out := make([]overlay.Member, 0, r)
	for k := 0; k < r; k++ {
		out = append(out, n.peers[(start+k)%len(n.peers)])
	}
	return out
}

// Route implements overlay.Fabric: iterative prefix-resolution routing.
// Every hop extends the agreed prefix by at least one bit, so hops are
// bounded by the trie depth ⌈log2 N⌉.
func (n *Network) Route(from overlay.Member, key string) (overlay.Member, int, error) {
	kb := []byte(keyBits(key))
	addr := from.Addr()
	hops := 0
	maxHops := bits.Len(uint(n.Size())) + 4
	for {
		raw, err := transport.CallRetry(n.tr, addr, overlay.EncodeEnvelope(routeService, kb), maxTransientRetries)
		if err != nil {
			return nil, hops, err
		}
		hops++
		if len(raw) < 1 {
			return nil, hops, fmt.Errorf("pgrid: empty route response")
		}
		next := string(raw[1:])
		if raw[0] == 'F' {
			owner, ok := n.View().Member(next)
			if !ok {
				return nil, hops, fmt.Errorf("pgrid: unknown owner %q", next)
			}
			n.lookupMu.Lock()
			n.lookupCount++
			n.lookupHopsSum += uint64(hops)
			n.lookupMu.Unlock()
			return owner, hops, nil
		}
		if hops > maxHops {
			return nil, hops, fmt.Errorf("pgrid: routing did not converge after %d hops", hops)
		}
		addr = next
	}
}

// CallService implements overlay.Fabric.
func (n *Network) CallService(addr, service string, req []byte) ([]byte, error) {
	return transport.CallRetry(n.tr, addr, overlay.EncodeEnvelope(service, req), maxTransientRetries)
}

// LookupStats returns routing statistics (count, mean hops).
func (n *Network) LookupStats() (uint64, float64) {
	n.lookupMu.Lock()
	defer n.lookupMu.Unlock()
	if n.lookupCount == 0 {
		return 0, 0
	}
	return n.lookupCount, float64(n.lookupHopsSum) / float64(n.lookupCount)
}

// Compile-time interface checks.
var (
	_ overlay.Fabric     = (*Network)(nil)
	_ overlay.Member     = (*Peer)(nil)
	_ overlay.Churn      = (*Network)(nil)
	_ overlay.MultiOwner = (*Network)(nil)
)
