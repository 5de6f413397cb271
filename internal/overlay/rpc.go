package overlay

import (
	"encoding/binary"
	"errors"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// Wire envelope: uvarint service-name length, service name, payload.
// The built-in routing service uses the reserved name "_route".

const routeService = "_route"

func encodeEnvelope(service string, payload []byte) []byte {
	buf := make([]byte, 0, len(service)+len(payload)+2)
	return append(wire.AppendString(buf, service), payload...)
}

func decodeEnvelope(req []byte) (service string, payload []byte, err error) {
	r := wire.NewReader(req)
	service = r.String(r.Uvarint())
	if r.Err() != nil {
		return "", nil, errors.New("overlay: corrupt envelope")
	}
	return service, r.Rest(), nil
}

// routeResp is one routing step's answer.
type routeResp struct {
	Found bool // true: Next is the owner; false: Next is the next hop
	Next  ID
}

func encodeRouteResp(r routeResp) []byte {
	buf := make([]byte, 9)
	if r.Found {
		buf[0] = 1
	}
	binary.BigEndian.PutUint64(buf[1:], uint64(r.Next))
	return buf
}

func decodeRouteResp(b []byte) (routeResp, error) {
	if len(b) != 9 {
		return routeResp{}, errors.New("overlay: corrupt route response")
	}
	return routeResp{Found: b[0] == 1, Next: ID(binary.BigEndian.Uint64(b[1:]))}, nil
}

// dispatch is the node's transport handler: it demultiplexes the built-in
// routing service and the index-layer services registered via Handle.
func (nd *Node) dispatch(req []byte) ([]byte, error) {
	service, payload, err := decodeEnvelope(req)
	if err != nil {
		return nil, err
	}
	if service == routeService {
		return nd.handleRoute(payload)
	}
	nd.mu.RLock()
	h, ok := nd.services[service]
	nd.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("overlay: node %s: unknown service %q", nd.addr, service)
	}
	return h(payload)
}

// handleRoute answers one iterative routing step: if the target id falls
// between this node and its successor the successor owns it; otherwise the
// closest preceding finger is returned as the next hop.
func (nd *Node) handleRoute(payload []byte) ([]byte, error) {
	if len(payload) != 8 {
		return nil, errors.New("overlay: corrupt route request")
	}
	target := ID(binary.BigEndian.Uint64(payload))
	nd.mu.RLock()
	defer nd.mu.RUnlock()
	if target == nd.id || nd.succ == nd.id {
		// Single-node ring or exact hit: this node owns the key.
		return encodeRouteResp(routeResp{Found: true, Next: nd.id}), nil
	}
	if between(nd.id, nd.succ, target) {
		return encodeRouteResp(routeResp{Found: true, Next: nd.succ}), nil
	}
	// Closest preceding finger: scan from the farthest finger down.
	for i := fingerBits - 1; i >= 0; i-- {
		f := nd.fingers[i]
		if f != nd.id && between(nd.id, target, f) && f != target {
			return encodeRouteResp(routeResp{Found: false, Next: f}), nil
		}
	}
	return encodeRouteResp(routeResp{Found: true, Next: nd.succ}), nil
}

// callRoute performs one routing RPC against cur, retrying transient
// transport failures.
func (n *Network) callRoute(cur *Node, target ID) (routeResp, error) {
	req := make([]byte, 8)
	binary.BigEndian.PutUint64(req, uint64(target))
	raw, err := n.callRetry(cur.addr, encodeEnvelope(routeService, req))
	if err != nil {
		return routeResp{}, err
	}
	return decodeRouteResp(raw)
}

// Verify transport.Handler compatibility at compile time.
var _ transport.Handler = (*Node)(nil).dispatch

// EncodeEnvelope and DecodeEnvelope expose the service-dispatch wire
// format so alternative Fabric implementations (the P-Grid trie) speak
// the same RPC framing.
func EncodeEnvelope(service string, payload []byte) []byte {
	return encodeEnvelope(service, payload)
}

// DecodeEnvelope parses a service envelope.
func DecodeEnvelope(req []byte) (service string, payload []byte, err error) {
	return decodeEnvelope(req)
}
