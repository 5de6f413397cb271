// Package transport provides the messaging substrate for the P2P overlay:
// a request/response abstraction with two implementations — a
// deterministic in-process network with exact byte/message accounting
// (used by the experiments, which measure traffic rather than wall-clock
// throughput) and a pooled TCP transport with length-prefixed frames,
// which carries every RPC between hdknode daemons and their clients:
// store fetches and inserts, streamed ingest and build, hdk.search,
// membership and repair. ARCHITECTURE.md ("The TCP frame path") has the
// frame format and the two rules its hot path keeps.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
)

// Handler processes one request and returns the response payload.
type Handler func(req []byte) ([]byte, error)

// Transport is a point-to-point request/response fabric.
type Transport interface {
	// Listen registers a handler for the given address and returns the
	// bound address (meaningful for TCP where port 0 resolves at bind).
	Listen(addr string, h Handler) (string, error)
	// Call sends a request to addr and waits for the response.
	Call(addr string, req []byte) ([]byte, error)
	// Close releases all listeners.
	Close() error
	// Stats returns cumulative traffic counters.
	Stats() Stats
}

// Stats are cumulative traffic counters. Bytes counts payload bytes in
// both directions (requests + responses), the quantity the paper's
// analysis tracks; framing overhead is reported separately by the TCP
// transport via FrameOverhead.
type Stats struct {
	Messages uint64 // number of Call invocations
	Bytes    uint64 // request + response payload bytes
}

// counters is an embeddable atomic stats block.
type counters struct {
	messages atomic.Uint64
	bytes    atomic.Uint64
}

func (c *counters) account(reqLen, respLen int) {
	c.messages.Add(1)
	c.bytes.Add(uint64(reqLen + respLen))
}

func (c *counters) Stats() Stats {
	return Stats{Messages: c.messages.Load(), Bytes: c.bytes.Load()}
}

// ErrUnknownAddress is returned by Call for an unregistered address.
var ErrUnknownAddress = errors.New("transport: unknown address")

// CallRetry performs a call, re-sending up to attempts times when the
// failure is a transient network drop (ErrTransient). Handler errors are
// returned immediately: the remote rejected the request, so re-sending
// cannot help.
func CallRetry(t Transport, addr string, req []byte, attempts int) ([]byte, error) {
	var lastErr error
	for i := 0; i <= attempts; i++ {
		resp, err := t.Call(addr, req)
		if err == nil {
			return resp, nil
		}
		if !errors.Is(err, ErrTransient) {
			return nil, err
		}
		lastErr = err
	}
	return nil, fmt.Errorf("transport: %d retries exhausted: %w", attempts, lastErr)
}

// ErrClosed is returned after Close.
var ErrClosed = errors.New("transport: closed")

// InProc is an in-process Transport: calls are direct function
// invocations, so experiments measure exactly the traffic the protocol
// generates with zero noise. Safe for concurrent use.
type InProc struct {
	counters
	mu       sync.RWMutex
	handlers map[string]Handler
	closed   bool
}

// NewInProc returns an empty in-process fabric.
func NewInProc() *InProc {
	return &InProc{handlers: make(map[string]Handler)}
}

// Listen implements Transport.
func (t *InProc) Listen(addr string, h Handler) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrClosed
	}
	if _, dup := t.handlers[addr]; dup {
		return "", fmt.Errorf("transport: address %q already bound", addr)
	}
	t.handlers[addr] = h
	return addr, nil
}

// Call implements Transport.
func (t *InProc) Call(addr string, req []byte) ([]byte, error) {
	t.mu.RLock()
	h, ok := t.handlers[addr]
	closed := t.closed
	t.mu.RUnlock()
	if closed {
		return nil, ErrClosed
	}
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrUnknownAddress, addr)
	}
	resp, err := h(req)
	if err != nil {
		return nil, err
	}
	t.account(len(req), len(resp))
	return resp, nil
}

// Close implements Transport.
func (t *InProc) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	t.handlers = map[string]Handler{}
	return nil
}
