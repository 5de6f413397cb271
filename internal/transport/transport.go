// Package transport provides the messaging substrate for the P2P overlay:
// a request/response abstraction with two implementations — a
// deterministic in-process network of direct function calls (used by the
// experiments, whose traffic the engine's registry counts) and a pooled
// TCP transport with length-prefixed frames, which carries every RPC
// between hdknode daemons and their clients: store fetches and inserts,
// streamed ingest and build, hdk.search, membership and repair. ARCHITECTURE.md ("The TCP frame path") has the
// frame format and the two rules its hot path keeps.
package transport

import (
	"errors"
	"fmt"
	"sync"
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
// invocations with no network in between. It counts nothing; the
// engine's registry counts the protocol's traffic. Safe for concurrent
// use.
type InProc struct {
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
