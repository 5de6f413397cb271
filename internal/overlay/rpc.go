package overlay

import (
	"errors"
	"fmt"

	"repro/internal/transport"
	"repro/internal/wire"
)

// EncodeEnvelope frames a service call: uvarint service-name length,
// service name, payload. Every member speaks it — the in-process Node
// and the cluster daemons alike.
func EncodeEnvelope(service string, payload []byte) []byte {
	buf := make([]byte, 0, len(service)+len(payload)+2)
	return append(wire.AppendString(buf, service), payload...)
}

// DecodeEnvelope parses a service envelope.
func DecodeEnvelope(req []byte) (service string, payload []byte, err error) {
	r := wire.NewReader(req)
	service = r.String(r.Uvarint())
	if r.Err() != nil {
		return "", nil, errors.New("overlay: corrupt envelope")
	}
	return service, r.Rest(), nil
}

// dispatch is the node's transport handler: it demultiplexes the
// index-layer services registered via Handle.
func (nd *Node) dispatch(req []byte) ([]byte, error) {
	service, payload, err := DecodeEnvelope(req)
	if err != nil {
		return nil, err
	}
	nd.mu.RLock()
	h, ok := nd.services[service]
	nd.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("overlay: node %s: unknown service %q", nd.addr, service)
	}
	return h(payload)
}

// Verify transport.Handler compatibility at compile time.
var _ transport.Handler = (*Node)(nil).dispatch
