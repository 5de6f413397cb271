package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/telemetry"
)

// TCP is a Transport over real TCP sockets using length-prefixed frames:
// a 1-byte status (responses only) and a 4-byte big-endian payload length
// followed by the payload. Connections are pooled per remote address with
// idle reuse, so a multi-process deployment pays the dial cost once per
// (caller, owner) pair instead of once per RPC; concurrent callers to the
// same address each check out their own connection. A frame costs one
// write and normally one read per side (see frameConn). Stats accounting
// matches InProc exactly (payload bytes both directions, one message per
// Call), keeping the paper's traffic analysis comparable across fabrics.
type TCP struct {
	counters
	cfg TCPConfig

	mu        sync.Mutex
	listeners []net.Listener
	idle      map[string][]*frameConn // per-address idle connections
	inflight  map[*frameConn]struct{} // client-side connections checked out by a Call
	accepted  map[net.Conn]struct{}   // server-side connections in flight
	closed    bool
	wg        sync.WaitGroup

	// metrics is what every hook records into: instruments on a private
	// registry from construction, swapped by Instrument.
	metrics atomic.Pointer[tcpMetrics]
}

// TCPConfig tunes the pooled transport. The zero value selects the
// defaults below.
type TCPConfig struct {
	// CallTimeout bounds one round trip — request write through response
	// read (default 30s; negative disables the deadline).
	CallTimeout time.Duration
	// MaxIdlePerHost bounds the idle connections kept per remote address
	// (default 8; negative disables pooling entirely).
	MaxIdlePerHost int
}

const (
	dialTimeout           = 5 * time.Second // bounds connection establishment
	defaultCallTimeout    = 30 * time.Second
	defaultMaxIdlePerHost = 8
)

func (c TCPConfig) withDefaults() TCPConfig {
	if c.CallTimeout == 0 {
		c.CallTimeout = defaultCallTimeout
	}
	if c.MaxIdlePerHost == 0 {
		c.MaxIdlePerHost = defaultMaxIdlePerHost
	}
	return c
}

// NewTCP returns a pooled TCP transport with default timeouts.
func NewTCP() *TCP { return NewTCPConfig(TCPConfig{}) }

// NewTCPConfig returns a pooled TCP transport with the given limits.
func NewTCPConfig(cfg TCPConfig) *TCP {
	t := &TCP{
		cfg:      cfg.withDefaults(),
		idle:     make(map[string][]*frameConn),
		inflight: make(map[*frameConn]struct{}),
		accepted: make(map[net.Conn]struct{}),
	}
	t.Instrument(telemetry.NewRegistry())
	return t
}

// MaxFrameSize bounds a single request or response payload (64 MiB), a
// guard against malformed length prefixes.
const MaxFrameSize = 64 << 20

const (
	statusOK  = 0
	statusErr = 1
)

// Listen implements Transport. Pass "127.0.0.1:0" to bind an ephemeral
// port; the resolved address is returned.
func (t *TCP) Listen(addr string, h Handler) (string, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return "", ErrClosed
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	t.listeners = append(t.listeners, ln)
	t.wg.Add(1)
	go t.serve(ln, h)
	return ln.Addr().String(), nil
}

func (t *TCP) serve(ln net.Listener, h Handler) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			conn.Close()
			return
		}
		t.accepted[conn] = struct{}{}
		t.mu.Unlock()
		t.wg.Add(1)
		go func() {
			defer t.wg.Done()
			defer func() {
				conn.Close()
				t.mu.Lock()
				delete(t.accepted, conn)
				t.mu.Unlock()
			}()
			t.handleConn(conn, h)
		}()
	}
}

// handleConn serves one client connection until it closes or a frame
// fails. Handler errors are reported to the caller in an error frame and
// the connection stays usable (the client keeps it pooled); transport
// errors close the connection via the deferred Close in serve — no path
// leaks the conn. A response over MaxFrameSize is a handler-side failure
// too: closing the conn instead would look like a stale pooled socket to
// the client, whose retry would run the (possibly non-idempotent)
// request a second time.
func (t *TCP) handleConn(conn net.Conn, h Handler) {
	fc := newFrameConn(conn)
	for {
		_, req, err := fc.readFrame()
		if err != nil {
			return // io.EOF on clean close
		}
		resp, herr := h(req)
		if herr == nil && len(resp) > MaxFrameSize {
			herr = fmt.Errorf("response of %d bytes exceeds frame limit", len(resp))
		}
		status := byte(statusOK)
		if herr != nil {
			status = statusErr
			resp = []byte(herr.Error())
		}
		if err := fc.writeFrame(status, resp); err != nil {
			return
		}
	}
}

// getConn checks out a pooled idle connection for addr or dials a fresh
// one, registering it as in flight either way so Close can reach it
// (an untracked checked-out conn would survive Close and block its
// caller until CallTimeout). reused reports which source the connection
// came from.
func (t *TCP) getConn(addr string) (conn *frameConn, reused bool, err error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, false, ErrClosed
	}
	if free := t.idle[addr]; len(free) > 0 {
		conn = free[len(free)-1]
		t.idle[addr] = free[:len(free)-1]
		t.inflight[conn] = struct{}{}
		t.mu.Unlock()
		t.metrics.Load().reuses.Inc()
		return conn, true, nil
	}
	t.mu.Unlock()
	dialStart := time.Now()
	raw, err := net.DialTimeout("tcp", addr, dialTimeout)
	if err != nil {
		return nil, false, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	dialed := time.Since(dialStart)
	conn = newFrameConn(raw)
	t.mu.Lock()
	if t.closed {
		// Close ran between the check above and the dial completing; the
		// conn would be invisible to it, so shut it down here.
		t.mu.Unlock()
		conn.Close()
		return nil, false, ErrClosed
	}
	t.inflight[conn] = struct{}{}
	t.mu.Unlock()
	m := t.metrics.Load()
	m.dials.Inc()
	m.dialLat.ObserveDuration(dialed)
	return conn, false, nil
}

// release drops a connection from the in-flight set once its Call is
// done with it (pooled, handed back, or closed on error).
func (t *TCP) release(conn *frameConn) {
	t.mu.Lock()
	delete(t.inflight, conn)
	t.mu.Unlock()
}

// isTimeout reports whether err is a network timeout (deadline expiry).
func isTimeout(err error) bool {
	var nerr net.Error
	return errors.As(err, &nerr) && nerr.Timeout()
}

// dropIdle closes every idle connection pooled for addr.
func (t *TCP) dropIdle(addr string) {
	t.mu.Lock()
	conns := t.idle[addr]
	delete(t.idle, addr)
	t.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// putConn returns a healthy connection to the idle pool (clearing its
// in-flight registration in the same critical section), or closes it
// when the pool is full, pooling is disabled, or the transport closed.
func (t *TCP) putConn(addr string, conn *frameConn) {
	if t.cfg.MaxIdlePerHost < 0 {
		t.release(conn)
		conn.Close()
		return
	}
	t.mu.Lock()
	delete(t.inflight, conn)
	if t.closed || len(t.idle[addr]) >= t.cfg.MaxIdlePerHost {
		t.mu.Unlock()
		t.metrics.Load().idleDropped.Inc()
		conn.Close()
		return
	}
	t.idle[addr] = append(t.idle[addr], conn)
	t.mu.Unlock()
}

// errRemote marks a handler-side failure: the remote processed the frame
// and answered with an error payload, so the connection itself is fine.
type errRemote struct{ msg string }

func (e errRemote) Error() string { return "transport: remote error: " + e.msg }

// roundTrip performs one framed request/response on conn under the call
// deadline. A returned error of type errRemote means the connection is
// still healthy; any other error means the connection must be discarded.
// The deadline is not cleared afterwards: nothing touches an idle pooled
// conn, and the next roundTrip re-arms it before its first I/O.
func (t *TCP) roundTrip(conn *frameConn, req []byte) ([]byte, error) {
	if t.cfg.CallTimeout > 0 {
		if err := conn.SetDeadline(time.Now().Add(t.cfg.CallTimeout)); err != nil {
			return nil, err
		}
	}
	if err := conn.writeFrame(statusOK, req); err != nil {
		return nil, err
	}
	status, resp, err := conn.readFrame()
	if err != nil {
		return nil, err
	}
	if status == statusErr {
		return nil, errRemote{msg: string(resp)}
	}
	return resp, nil
}

// Call implements Transport. A call that fails on a REUSED pooled
// connection before any fresh dial is retried exactly once on a new
// connection: the overwhelmingly common cause is a stale pooled socket
// whose server restarted or timed the connection out, which surfaces as
// an immediate write/read failure. Calls that fail on a freshly dialed
// connection are reported to the caller (CallRetry handles transient
// policies above this layer).
//
// A request over MaxFrameSize is refused before a connection is checked
// out: the server would drop the conn on the oversized prefix, burning a
// healthy pooled connection (and, through the stale-conn retry, its idle
// siblings) on a call that can never succeed.
func (t *TCP) Call(addr string, req []byte) ([]byte, error) {
	if len(req) > MaxFrameSize {
		err := fmt.Errorf("transport: call %s: request of %d bytes exceeds frame limit", addr, len(req))
		t.observeCall(0, err)
		return nil, err
	}
	callStart := time.Now()
	for attempt := 0; ; attempt++ {
		conn, reused, err := t.getConn(addr)
		if err != nil {
			t.observeCall(0, err)
			return nil, err
		}
		resp, err := t.roundTrip(conn, req)
		if err == nil {
			t.putConn(addr, conn)
			t.account(len(req), len(resp))
			t.observeCall(time.Since(callStart), nil)
			return resp, nil
		}
		if _, remote := err.(errRemote); remote {
			// The remote rejected the request; the connection is fine.
			// Handler errors are answers, not transport failures, so the
			// round trip still counts as a completed call.
			t.putConn(addr, conn)
			t.observeCall(time.Since(callStart), nil)
			return nil, err
		}
		t.release(conn)
		conn.Close()
		if reused && attempt == 0 && !isTimeout(err) {
			// A reused conn failing with RST/EOF is almost always a
			// stale pooled socket — its server restarted or timed the
			// connection out before this request, so re-sending is safe.
			// Timeouts are excluded: the server may still be working on
			// the request, and re-sending would duplicate RPCs that are
			// not idempotent (index inserts, repair imports). A residual
			// at-most-once window remains — a LIVE server whose
			// connection resets after processing the request but before
			// the response is read would see a duplicate — closing it
			// needs request-level idempotency tokens; on the localhost
			// clusters this transport targets, live-conn resets do not
			// occur spontaneously, so the trade is accepted (Go's HTTP
			// keep-alive transport makes the same one). Every other idle
			// connection to this address predates the failure and is
			// equally stale, so drop them all and dial fresh rather than
			// popping the next dead one.
			t.dropIdle(addr)
			t.metrics.Load().staleRetries.Inc()
			continue
		}
		t.observeCall(0, err)
		return nil, fmt.Errorf("transport: call %s: %w", addr, err)
	}
}

// Close implements Transport. It stops all listeners, closes every
// pooled idle connection AND every client connection currently checked
// out by an in-flight Call — a call blocked on a stalled or dead server
// fails immediately with a closed-connection error instead of holding
// its fd and the caller hostage until CallTimeout — then waits for
// in-flight server goroutines to drain.
func (t *TCP) Close() error {
	t.mu.Lock()
	t.closed = true
	for _, ln := range t.listeners {
		ln.Close()
	}
	t.listeners = nil
	for addr, conns := range t.idle {
		for _, c := range conns {
			c.Close()
		}
		delete(t.idle, addr)
	}
	for c := range t.inflight {
		c.Close()
	}
	// Server-side connections may sit in readFrame waiting for a pooled
	// client's next request; closing them unblocks the handler goroutines
	// so wg.Wait cannot hang on a client that keeps its pool warm.
	for c := range t.accepted {
		c.Close()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}

// IdleConns reports the number of pooled idle connections (all
// addresses), for tests and diagnostics.
func (t *TCP) IdleConns() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	n := 0
	for _, conns := range t.idle {
		n += len(conns)
	}
	return n
}

// FrameOverhead is the per-message framing cost in bytes (status byte on
// the response + two 4-byte length prefixes), reported so byte accounting
// can separate protocol payload from wire overhead.
const FrameOverhead = 1 + 4 + 4

const (
	frameHeaderSize = 5

	// frameBufSize sizes both per-connection buffers: a frame of at most
	// this many bytes (header included) is copied behind its header and
	// leaves in one write, and arrives — header and payload — in one read.
	// Every search-path frame (requests, fetchBatch responses of ≤ DFmax
	// postings per key, top-k answers) fits.
	frameBufSize = 16 << 10

	// readStep is a frame reader's first allocation when the header
	// announces more; hdk.ingest chunks (256 KiB) fit in one step.
	readStep = 1 << 20
)

// frameConn is one TCP connection with the buffers that make a small
// frame one write and (normally) one read per side. A connection has one
// user at a time — the Call that checked it out of the pool, or the
// server goroutine that accepted it — so the buffers need no lock.
//
// Ownership rule: payloads returned by readFrame are freshly allocated
// and never recycled. Decoders alias the frame they decode, the durable
// log appends raw request payloads and the result cache keeps response
// bodies; only the header/coalescing scratch is reused.
type frameConn struct {
	net.Conn
	br   *bufio.Reader
	wbuf []byte // header + small payload, reused across frames
}

func newFrameConn(c net.Conn) *frameConn {
	return &frameConn{Conn: c, br: bufio.NewReaderSize(c, frameBufSize)}
}

// writeFrame sends one frame; the caller has checked len(payload) against
// MaxFrameSize. Small frames are coalesced into one Write; larger ones
// go out as a header+payload vector (writev on a TCP socket), so a
// multi-MB hdk.insert or hdk.ingest payload is never copied.
func (c *frameConn) writeFrame(status byte, payload []byte) error {
	c.wbuf = binary.BigEndian.AppendUint32(append(c.wbuf[:0], status), uint32(len(payload)))
	if frameHeaderSize+len(payload) <= frameBufSize {
		c.wbuf = append(c.wbuf, payload...)
		_, err := c.Conn.Write(c.wbuf)
		return err
	}
	bufs := net.Buffers{c.wbuf, payload}
	_, err := bufs.WriteTo(c.Conn)
	return err
}

// readFrame reads one frame (the status byte is meaningful on responses
// only).
func (c *frameConn) readFrame() (status byte, payload []byte, err error) {
	hdr, err := c.br.Peek(frameHeaderSize)
	if err != nil {
		if err == io.EOF && len(hdr) > 0 {
			err = io.ErrUnexpectedEOF
		}
		return 0, nil, err
	}
	status = hdr[0]
	n := binary.BigEndian.Uint32(hdr[1:])
	if n > MaxFrameSize {
		return 0, nil, errors.New("transport: oversized frame")
	}
	c.br.Discard(frameHeaderSize) // cannot fail: Peek buffered these bytes
	payload, err = readPayload(c.br, int(n))
	if err != nil {
		return 0, nil, err
	}
	return status, payload, nil
}

// readPayload reads exactly n bytes into a fresh slice. The length came
// off the wire before a single payload byte did, so the slice grows with
// the bytes that actually arrive — one readStep first, then to four
// times what has been read — and a corrupt or hostile prefix costs a
// small multiple of what it sends, not the 64 MiB it announces. Growing
// by four rather than two keeps an honest multi-MB frame's extra
// allocation and copying to a third of its size. On error the bytes read
// so far are returned alongside it.
func readPayload(r io.Reader, n int) ([]byte, error) {
	buf := make([]byte, min(n, readStep))
	got := 0
	for {
		m, err := io.ReadFull(r, buf[got:])
		got += m
		if err != nil {
			if err == io.EOF {
				err = io.ErrUnexpectedEOF
			}
			return buf[:got], err
		}
		if got == n {
			return buf, nil
		}
		grown := make([]byte, min(n, 4*got))
		copy(grown, buf)
		buf = grown
	}
}
