package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// echoServer binds an echo handler on an ephemeral port of ts and returns
// the bound address.
func echoServer(t *testing.T, ts *TCP) string {
	t.Helper()
	addr, err := ts.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return addr
}

func TestTCPPoolReuseSequential(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr := echoServer(t, tr)

	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := tr.Call(addr, []byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	ps := pool(tr)
	if ps.Dials != 1 {
		t.Fatalf("Dials = %d, want 1 (sequential calls must reuse one connection)", ps.Dials)
	}
	if ps.Reuses != calls-1 {
		t.Fatalf("Reuses = %d, want %d", ps.Reuses, calls-1)
	}
	if got := tr.IdleConns(); got != 1 {
		t.Fatalf("IdleConns = %d, want 1", got)
	}
}

func TestTCPPoolConcurrent(t *testing.T) {
	for _, tc := range []struct {
		name    string
		workers int
		calls   int
		maxIdle int
	}{
		{"2x50", 2, 50, 8},
		{"8x100", 8, 100, 8},
		{"16x25-small-pool", 16, 25, 2},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr := newTCP(callTimeout, tc.maxIdle)
			defer tr.Close()
			addr := echoServer(t, tr)

			var wg sync.WaitGroup
			for w := 0; w < tc.workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					for i := 0; i < tc.calls; i++ {
						req := []byte(fmt.Sprintf("w%d-%d", w, i))
						resp, err := tr.Call(addr, req)
						if err != nil {
							t.Error(err)
							return
						}
						if want := "echo:" + string(req); string(resp) != want {
							t.Errorf("resp = %q, want %q", resp, want)
							return
						}
					}
				}(w)
			}
			wg.Wait()

			total := uint64(tc.workers * tc.calls)
			if got := wire(tr).Calls; got != total {
				t.Fatalf("Calls = %d, want %d", got, total)
			}
			ps := pool(tr)
			// A conn dropped at a full pool (only possible when maxIdle <
			// workers) is the one way a worker comes back to an empty pool.
			if ps.Dials > uint64(tc.workers)+ps.IdleDropped {
				t.Fatalf("Dials = %d, want <= %d workers + %d dropped at a full pool", ps.Dials, tc.workers, ps.IdleDropped)
			}
			if ps.Dials+ps.Reuses < total {
				t.Fatalf("Dials+Reuses = %d, want >= %d", ps.Dials+ps.Reuses, total)
			}
			if got := tr.IdleConns(); got > tc.maxIdle {
				t.Fatalf("IdleConns = %d, want <= the pool size %d", got, tc.maxIdle)
			}
		})
	}
}

func TestTCPHandlerErrorKeepsConnectionPooled(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		if bytes.HasPrefix(req, []byte("bad")) {
			return nil, errors.New("rejected")
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// ok, error, ok, error, ok — all over one connection.
	for i, req := range []string{"a", "bad1", "b", "bad2", "c"} {
		resp, err := tr.Call(addr, []byte(req))
		if strings.HasPrefix(req, "bad") {
			if err == nil || !strings.Contains(err.Error(), "rejected") {
				t.Fatalf("call %d: err = %v, want remote rejection", i, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
		if string(resp) != req {
			t.Fatalf("call %d: resp = %q, want %q", i, resp, req)
		}
	}
	if ps := pool(tr); ps.Dials != 1 {
		t.Fatalf("Dials = %d, want 1 (handler errors must not burn the connection)", ps.Dials)
	}
	// A handler error is an answered round trip: all five count.
	if got := wire(tr).Calls; got != 5 {
		t.Fatalf("Calls = %d, want 5", got)
	}
}

func TestTCPCallTimeout(t *testing.T) {
	tr := newTCP(80*time.Millisecond, maxIdlePerHost)
	defer tr.Close()
	block := make(chan struct{})
	addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		if len(req) > 0 && req[0] == 's' {
			<-block
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Warm the pool so the slow call below runs on a REUSED connection:
	// a timeout on a reused conn must NOT be retried (the server may
	// still be processing; a re-send would duplicate the RPC).
	if _, err := tr.Call(addr, []byte("fast")); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	if _, err := tr.Call(addr, []byte("slow")); err == nil {
		t.Fatal("call against stalled handler succeeded, want deadline error")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
	if ps := pool(tr); ps.StaleRetries != 0 {
		t.Fatalf("StaleRetries = %d, want 0 (timeouts must never re-send)", ps.StaleRetries)
	}
	close(block)
	// The timed-out connection must not be reused; a fresh call succeeds.
	if _, err := tr.Call(addr, []byte("fast")); err != nil {
		t.Fatalf("call after timeout: %v", err)
	}
	if ps := pool(tr); ps.Dials < 2 {
		t.Fatalf("Dials = %d, want >= 2 (timed-out conn must be discarded)", ps.Dials)
	}
}

func TestTCPServerRestartMidPool(t *testing.T) {
	client := NewTCP()
	defer client.Close()

	server := NewTCP()
	release := make(chan struct{})
	addr, err := server.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		<-release // hold every in-flight call so each caller keeps its own conn
		return []byte("gen1"), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Warm SEVERAL idle connections (the blocked concurrent callers each
	// dial their own): after the restart every one of them is stale, and
	// a single call must still succeed — the retry has to dial fresh
	// rather than pop the next stale pooled conn.
	const warmConns = 4
	var warm sync.WaitGroup
	for i := 0; i < warmConns; i++ {
		warm.Add(1)
		go func() {
			defer warm.Done()
			if _, err := client.Call(addr, []byte("x")); err != nil {
				t.Error(err)
			}
		}()
	}
	for pool(client).Dials < warmConns { // all four callers are conn-holding
		time.Sleep(time.Millisecond)
	}
	close(release)
	warm.Wait()
	if got := client.IdleConns(); got != warmConns {
		t.Fatalf("IdleConns = %d, want %d", got, warmConns)
	}
	server.Close()

	// Restart a server on the SAME address; the pooled connection is now
	// stale and the call must transparently re-dial.
	server2 := NewTCP()
	defer server2.Close()
	if _, err := server2.Listen(addr, func(req []byte) ([]byte, error) {
		return []byte("gen2"), nil
	}); err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	resp, err := client.Call(addr, []byte("x"))
	if err != nil {
		t.Fatalf("call after server restart: %v", err)
	}
	if string(resp) != "gen2" {
		t.Fatalf("resp = %q, want gen2", resp)
	}
	if ps := pool(client); ps.StaleRetries == 0 {
		t.Fatalf("StaleRetries = 0, want >= 1 after restart (stats: %+v)", ps)
	}
}

// TestTCPCountsRoundTrips pins the transport's wire series on one call
// sequence: every answered round trip — handler errors included — is
// one timed call and counts its request and response payload bytes; a
// call that never reached a handler is a call error and counts no bytes.
func TestTCPCountsRoundTrips(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	reg := telemetry.NewRegistry()
	tr.Instrument(reg)
	addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		if len(req) == 0 {
			return nil, errors.New("empty")
		}
		return append(req, req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range [][]byte{[]byte("a"), []byte("longer-payload"), nil, []byte("x"), {}, []byte("final")} {
		tr.Call(addr, r) // the empty payloads are answered with the handler's error
	}
	if _, err := tr.Call("127.0.0.1:1", []byte("unreachable")); err == nil {
		t.Fatal("dial to closed port succeeded")
	}

	snap := reg.Snapshot()
	calls, _ := snap.Histogram(metricCallNanos)
	errs, _ := snap.Counter(metricCallErrors)
	reqBytes, _ := snap.Counter(metricRequestBytes)
	respBytes, _ := snap.Counter(metricResponseBytes)
	// Requests 1+14+0+1+0+5; responses 2+28+5+2+5+10 ("empty" twice).
	if calls.Count != 6 || errs != 1 || reqBytes != 21 || respBytes != 52 {
		t.Fatalf("%d calls, %d call errors, %d request bytes, %d response bytes; want 6, 1, 21, 52",
			calls.Count, errs, reqBytes, respBytes)
	}
}

func TestTCPCloseDrainsPool(t *testing.T) {
	tr := NewTCP()
	addr := echoServer(t, tr)
	if _, err := tr.Call(addr, []byte("warm")); err != nil {
		t.Fatal(err)
	}
	if tr.IdleConns() != 1 {
		t.Fatalf("IdleConns = %d, want 1", tr.IdleConns())
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if tr.IdleConns() != 0 {
		t.Fatalf("IdleConns after Close = %d, want 0", tr.IdleConns())
	}
	if _, err := tr.Call(addr, []byte("x")); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close: %v, want ErrClosed", err)
	}
}

func TestTCPMaxIdlePerHost(t *testing.T) {
	tr := newTCP(callTimeout, 1)
	defer tr.Close()
	addr := echoServer(t, tr)

	// Hold several connections open concurrently, then release them all:
	// only one may stay idle.
	const parallel = 4
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-gate
			if _, err := tr.Call(addr, []byte("p")); err != nil {
				t.Error(err)
			}
		}()
	}
	close(gate)
	wg.Wait()
	if got := tr.IdleConns(); got > 1 {
		t.Fatalf("IdleConns = %d, want <= 1", got)
	}
}

// TestTCPCloseUnblocksInFlightCall is the shutdown-leak regression: a
// Call blocked on a stalled server holds a client connection that Close
// used to be unable to see (it only drained idle and accepted conns), so
// the fd leaked and the caller stayed blocked until the call timeout
// (30s). Close must close checked-out connections too, failing the call
// immediately.
func TestTCPCloseUnblocksInFlightCall(t *testing.T) {
	// Server on its own transport: a handler that stalls until released.
	srv := NewTCP()
	defer srv.Close()
	release := make(chan struct{})
	entered := make(chan struct{})
	var once sync.Once
	addr, err := srv.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		once.Do(func() { close(entered) })
		<-release
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}
	defer close(release)

	// Client with a call timeout far beyond the test: if Close does not
	// unblock the call, the test times out instead of sneaking past via
	// the deadline.
	cli := newTCP(10*time.Minute, maxIdlePerHost)
	callDone := make(chan error, 1)
	go func() {
		_, err := cli.Call(addr, []byte("stall"))
		callDone <- err
	}()
	<-entered // the request reached the handler; the client conn is in flight

	closeDone := make(chan struct{})
	go func() {
		cli.Close()
		close(closeDone)
	}()
	select {
	case err := <-callDone:
		if err == nil {
			t.Fatal("in-flight call returned success after transport Close")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call still blocked 5s after Close — in-flight client conn leaked")
	}
	select {
	case <-closeDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	// Everything is deregistered: no idle conns, later calls fail fast.
	if n := cli.IdleConns(); n != 0 {
		t.Fatalf("%d idle conns after Close", n)
	}
	if _, err := cli.Call(addr, []byte("late")); !errors.Is(err, ErrClosed) {
		t.Fatalf("call after Close: %v, want ErrClosed", err)
	}
}

// TestTCPInflightTrackingBalanced verifies the in-flight set empties out
// on every Call path (success, handler error, transport error), so Close
// never closes a connection some earlier call abandoned in the map.
func TestTCPInflightTrackingBalanced(t *testing.T) {
	srv := NewTCP()
	defer srv.Close()
	addr, err := srv.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		if string(req) == "fail" {
			return nil, errors.New("handler says no")
		}
		return req, nil
	})
	if err != nil {
		t.Fatal(err)
	}

	cli := NewTCP()
	defer cli.Close()
	if _, err := cli.Call(addr, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(addr, []byte("fail")); err == nil {
		t.Fatal("handler error not surfaced")
	}
	srvAddr2 := echoServer(t, srv)
	if _, err := cli.Call(srvAddr2, []byte("ok")); err != nil {
		t.Fatal(err)
	}
	cli.mu.Lock()
	n := len(cli.inflight)
	cli.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d connections stuck in the in-flight set", n)
	}
}

// TestTCPInstrumentRepoints: the transport counts on a private registry
// from construction and, after Instrument, on the registry it was given
// — each call in exactly one of them.
func TestTCPInstrumentRepoints(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr := echoServer(t, tr)
	call := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := tr.Call(addr, []byte("x")); err != nil {
				t.Fatal(err)
			}
		}
	}
	call(2)
	if ps := pool(tr); ps.Dials != 1 || ps.Reuses != 1 {
		t.Fatalf("before Instrument: %+v, want 1 dial and 1 reuse", ps)
	}
	reg := telemetry.NewRegistry()
	tr.Instrument(reg)
	call(3)
	snap := reg.Snapshot()
	dials, _ := snap.Counter(metricDials)
	reuses, _ := snap.Counter(metricPoolReuses)
	calls, _ := snap.Histogram(metricCallNanos)
	if dials != 0 || reuses != 3 || calls.Count != 3 {
		t.Fatalf("after Instrument: %d dials, %d reuses, %d calls timed; want 0, 3, 3", dials, reuses, calls.Count)
	}
	if idle, _ := snap.Gauge(metricIdleConns); idle != 1 {
		t.Fatalf("idle-conns gauge %v, want 1", idle)
	}
}
