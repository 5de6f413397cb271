package transport

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
)

// ErrTransient marks a delivery failure that the caller may retry: the
// message was dropped by the network, not rejected by the remote handler.
// The overlay retries calls that fail with this error.
var ErrTransient = errors.New("transport: transient delivery failure")

// Flaky wraps a Transport and drops a deterministic fraction of calls
// with ErrTransient — failure injection for protocol-robustness tests.
// Drops happen before delivery, so the remote handler never runs for a
// dropped message (at-most-once semantics, the harder case for the
// protocols under test).
type Flaky struct {
	inner Transport
	rate  float64

	mu      sync.Mutex
	rng     *rand.Rand
	dropped uint64
}

// NewFlaky wraps inner, dropping rate ∈ [0,1) of calls, deterministic in
// seed.
func NewFlaky(inner Transport, rate float64, seed int64) (*Flaky, error) {
	if rate < 0 || rate >= 1 {
		return nil, fmt.Errorf("transport: drop rate must be in [0,1), got %g", rate)
	}
	return &Flaky{inner: inner, rate: rate, rng: rand.New(rand.NewSource(seed))}, nil
}

// Listen implements Transport.
func (f *Flaky) Listen(addr string, h Handler) (string, error) {
	return f.inner.Listen(addr, h)
}

// Call implements Transport, dropping a fraction of requests.
func (f *Flaky) Call(addr string, req []byte) ([]byte, error) {
	f.mu.Lock()
	drop := f.rng.Float64() < f.rate
	if drop {
		f.dropped++
	}
	f.mu.Unlock()
	if drop {
		return nil, fmt.Errorf("%w: dropped call to %s", ErrTransient, addr)
	}
	return f.inner.Call(addr, req)
}

// Close implements Transport.
func (f *Flaky) Close() error { return f.inner.Close() }

// Dropped returns the number of injected failures.
func (f *Flaky) Dropped() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.dropped
}
