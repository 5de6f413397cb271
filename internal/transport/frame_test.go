package transport

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
)

// countingConn records the syscall shape of a connection: how many
// Write and Read calls reached it and which slices were written.
type countingConn struct {
	net.Conn
	mu            sync.Mutex
	writes, reads int
	written       [][]byte // the exact slices handed to Write, not copies
}

func (c *countingConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	c.writes++
	c.written = append(c.written, p)
	c.mu.Unlock()
	return c.Conn.Write(p)
}

func (c *countingConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	c.reads++
	c.mu.Unlock()
	return c.Conn.Read(p)
}

func (c *countingConn) counts() (writes, reads int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.writes, c.reads
}

// streamConn is a net.Conn over a plain byte stream, for frame tests
// that need no peer; only Read and Write are usable.
type streamConn struct {
	net.Conn
	r io.Reader
	w io.Writer
}

func (c streamConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c streamConn) Write(p []byte) (int, error) { return c.w.Write(p) }

// encodeFrame returns the wire bytes writeFrame produces.
func encodeFrame(t testing.TB, status byte, payload []byte) []byte {
	t.Helper()
	var out bytes.Buffer
	if err := newFrameConn(streamConn{w: &out}).writeFrame(status, payload); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// pipePair serves h on one end of a synchronous in-memory pipe and
// returns the client end; both ends count their calls. On a pipe every
// Write is delivered whole to a large-enough Read, so the counts are
// exact rather than typical.
func pipePair(t *testing.T, tr *TCP, h Handler) (client *frameConn, cliCount, srvCount *countingConn) {
	t.Helper()
	a, b := net.Pipe()
	cliCount, srvCount = &countingConn{Conn: a}, &countingConn{Conn: b}
	done := make(chan struct{})
	go func() {
		defer close(done)
		tr.handleConn(srvCount, h)
	}()
	t.Cleanup(func() {
		a.Close()
		<-done
		b.Close()
	})
	return newFrameConn(cliCount), cliCount, srvCount
}

func TestFrameSmallIsOneWriteOneRead(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	client, cli, srv := pipePair(t, tr, func(req []byte) ([]byte, error) {
		if bytes.HasPrefix(req, []byte("bad")) {
			return nil, errors.New("rejected")
		}
		return append([]byte(nil), req...), nil
	})

	calls := 0
	check := func(what string) {
		t.Helper()
		calls++
		cw, cr := cli.counts()
		sw, sr := srv.counts()
		if cw != calls || sw != calls {
			t.Fatalf("%s: %d client / %d server writes after %d calls, want one per frame", what, cw, sw, calls)
		}
		// The server may already sit in the Read for its next request.
		if cr != calls || sr > calls+1 {
			t.Fatalf("%s: %d client / %d server reads after %d calls, want one per frame", what, cr, sr, calls)
		}
	}
	for _, size := range []int{0, 1, 64, 4 << 10, frameBufSize - frameHeaderSize} {
		req := bytes.Repeat([]byte{byte(size)}, size)
		resp, err := tr.roundTrip(client, req)
		if err != nil {
			t.Fatalf("%d-byte frame: %v", size, err)
		}
		if !bytes.Equal(resp, req) {
			t.Fatalf("%d-byte frame: echo differs", size)
		}
		check(fmt.Sprintf("%d-byte frame", size))
	}

	// A handler error is an answer like any other: one write and one read
	// each way, and the connection keeps serving.
	if _, err := tr.roundTrip(client, []byte("bad")); !errors.As(err, &errRemote{}) {
		t.Fatalf("handler error surfaced as %v, want errRemote", err)
	}
	check("handler error")
	if _, err := tr.roundTrip(client, []byte("after")); err != nil {
		t.Fatalf("call after handler error: %v", err)
	}
	check("call after handler error")
}

func TestFrameLargeIsNotCopied(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	client, cli, srv := pipePair(t, tr, func(req []byte) ([]byte, error) { return req, nil })

	req := make([]byte, 1<<20)
	for i := range req {
		req[i] = byte(i * 7)
	}
	resp, err := tr.roundTrip(client, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, req) {
		t.Fatal("1 MiB frame did not round-trip byte-identical")
	}
	if &resp[0] == &req[0] {
		t.Fatal("response aliases the request: payloads must be freshly allocated")
	}
	// The payload reached the connection as the caller's own slice (the
	// vectored write), and the scratch buffer held the header only.
	sentOwnSlice := false
	cli.mu.Lock()
	for _, w := range cli.written {
		if len(w) == len(req) && &w[0] == &req[0] {
			sentOwnSlice = true
		}
	}
	cli.mu.Unlock()
	if !sentOwnSlice {
		t.Fatal("1 MiB request was copied before the write")
	}
	if cap(client.wbuf) > frameBufSize {
		t.Fatalf("scratch buffer grew to %d bytes, want <= %d", cap(client.wbuf), frameBufSize)
	}
	// Off a real socket the vector is one writev; a wrapper without
	// writev sees its two parts.
	cw, _ := cli.counts()
	sw, _ := srv.counts()
	if cw != 2 || sw != 2 {
		t.Fatalf("%d client / %d server writes, want header+payload each", cw, sw)
	}
}

// TestFrameSplitAcrossReads feeds a frame stream one byte per Read: the
// parser may not assume a header or a payload arrives whole. The 5 MiB
// frame outgrows its buffer twice (1 → 4 → 5 MiB), so the
// grow-as-it-arrives path is the one under test.
func TestFrameSplitAcrossReads(t *testing.T) {
	type frame struct {
		status  byte
		payload []byte
	}
	big := make([]byte, 5<<20+17)
	for i := range big {
		big[i] = byte(i >> 3)
	}
	frames := []frame{
		{statusOK, []byte("hello")},
		{statusErr, nil},
		{statusOK, bytes.Repeat([]byte("x"), frameBufSize+1)},
		{statusOK, big},
		{statusErr, []byte("tail")},
	}
	var wire []byte
	for _, f := range frames {
		wire = append(wire, encodeFrame(t, f.status, f.payload)...)
	}

	fc := newFrameConn(streamConn{r: iotest.OneByteReader(bytes.NewReader(wire))})
	for i, want := range frames {
		status, payload, err := fc.readFrame()
		if err != nil {
			t.Fatalf("frame %d: %v", i, err)
		}
		if status != want.status || !bytes.Equal(payload, want.payload) {
			t.Fatalf("frame %d: got status %d, %d bytes; want status %d, %d bytes",
				i, status, len(payload), want.status, len(want.payload))
		}
	}
	if _, _, err := fc.readFrame(); err != io.EOF {
		t.Fatalf("after the last frame: %v, want io.EOF", err)
	}
}

// TestFrameTruncatedAllocation is the allocation-bomb regression: a
// header may announce 64 MiB, but the reader holds no more than one step
// beyond the bytes that arrived.
func TestFrameTruncatedAllocation(t *testing.T) {
	for _, supplied := range []int{0, 3, readStep - 1, readStep + 1, 5 << 20} {
		got, err := readPayload(bytes.NewReader(make([]byte, supplied)), MaxFrameSize)
		if err != io.ErrUnexpectedEOF {
			t.Fatalf("%d of %d bytes: err = %v, want io.ErrUnexpectedEOF", supplied, MaxFrameSize, err)
		}
		if len(got) != supplied {
			t.Fatalf("%d bytes supplied, %d returned", supplied, len(got))
		}
		if cap(got) > allocLimit(supplied) {
			t.Fatalf("%d bytes supplied, %d allocated, want <= %d", supplied, cap(got), allocLimit(supplied))
		}
	}
}

// TestTCPOversizedResponseIsAnErrorFrame: a response over MaxFrameSize
// used to fail the server's write and close the conn; on a reused conn
// the client took the EOF for a stale socket and re-sent the request —
// a second execution of a non-idempotent RPC.
func TestTCPOversizedResponseIsAnErrorFrame(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	var bigCalls atomic.Int32
	addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		if string(req) == "big" {
			bigCalls.Add(1)
			return make([]byte, MaxFrameSize+1), nil
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm the pool: only a REUSED conn is eligible for the stale retry.
	if _, err := tr.Call(addr, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	_, err = tr.Call(addr, []byte("big"))
	if err == nil || !strings.Contains(err.Error(), "exceeds frame limit") {
		t.Fatalf("oversized response: err = %v, want a frame-limit remote error", err)
	}
	if n := bigCalls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want exactly once", n)
	}
	if _, err := tr.Call(addr, []byte("after")); err != nil {
		t.Fatalf("call after oversized response: %v", err)
	}
	if ps := pool(tr); ps.Dials != 1 || ps.StaleRetries != 0 {
		t.Fatalf("pool stats %+v, want 1 dial and no stale retry (the conn must survive)", ps)
	}
}

// TestTCPOversizedRequestIsRefusedBeforeCheckout: the request can never
// be sent, so it must not cost a healthy pooled connection.
func TestTCPOversizedRequestIsRefusedBeforeCheckout(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	var calls atomic.Int32
	addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		calls.Add(1)
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Call(addr, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	before := pool(tr)

	_, err = tr.Call(addr, make([]byte, MaxFrameSize+1))
	if err == nil || !strings.Contains(err.Error(), "exceeds frame limit") {
		t.Fatalf("oversized request: err = %v, want a frame-limit error", err)
	}
	if after := pool(tr); after != before {
		t.Fatalf("pool stats moved: %+v -> %+v", before, after)
	}
	if n := tr.IdleConns(); n != 1 {
		t.Fatalf("IdleConns = %d, want the warm conn still pooled", n)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want 1 (the warm-up only)", n)
	}
}

// BenchmarkTCPRoundTrip is one pooled loopback Call per iteration: the
// frame path's local number (bench/ is a module of its own, invisible to
// the root module's -bench smoke).
func BenchmarkTCPRoundTrip(b *testing.B) {
	for _, size := range []int{64, 4 << 10, 1 << 20} {
		b.Run(fmt.Sprintf("%dB", size), func(b *testing.B) {
			tr := NewTCP()
			defer tr.Close()
			addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) { return req, nil })
			if err != nil {
				b.Fatal(err)
			}
			req := make([]byte, size)
			if _, err := tr.Call(addr, req); err != nil { // dial outside the timer
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.SetBytes(int64(2 * size))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Call(addr, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
