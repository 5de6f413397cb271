package transport

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
)

func testTransportBasics(t *testing.T, tr Transport, addrHint func(i int) string) {
	t.Helper()
	echoAddr, err := tr.Listen(addrHint(0), func(req []byte) ([]byte, error) {
		return append([]byte("echo:"), req...), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	failAddr, err := tr.Listen(addrHint(1), func(req []byte) ([]byte, error) {
		return nil, errors.New("boom")
	})
	if err != nil {
		t.Fatal(err)
	}

	resp, err := tr.Call(echoAddr, []byte("hi"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, []byte("echo:hi")) {
		t.Fatalf("resp = %q", resp)
	}

	if _, err := tr.Call(failAddr, []byte("x")); err == nil {
		t.Fatal("handler error not propagated")
	} else if !strings.Contains(err.Error(), "boom") {
		t.Fatalf("error %q does not carry handler message", err)
	}
}

func TestInProcBasics(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	testTransportBasics(t, tr, func(i int) string { return fmt.Sprintf("peer-%d", i) })
}

func TestTCPBasics(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	testTransportBasics(t, tr, func(int) string { return "127.0.0.1:0" })
	// The handler error is an answered round trip: "x" out, "boom" back.
	want := wireStats{Calls: 2, RequestBytes: uint64(len("hi") + len("x")), ResponseBytes: uint64(len("echo:hi") + len("boom"))}
	if got := wire(tr); got != want {
		t.Fatalf("wire = %+v, want %+v", got, want)
	}
}

func TestInProcUnknownAddress(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	if _, err := tr.Call("nobody", nil); !errors.Is(err, ErrUnknownAddress) {
		t.Fatalf("err = %v, want ErrUnknownAddress", err)
	}
}

func TestInProcDuplicateBind(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	if _, err := tr.Listen("a", func(b []byte) ([]byte, error) { return b, nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Listen("a", func(b []byte) ([]byte, error) { return b, nil }); err == nil {
		t.Fatal("duplicate bind accepted")
	}
}

func TestInProcClosed(t *testing.T) {
	tr := NewInProc()
	tr.Listen("a", func(b []byte) ([]byte, error) { return b, nil })
	tr.Close()
	if _, err := tr.Call("a", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call after Close: %v", err)
	}
	if _, err := tr.Listen("b", nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Listen after Close: %v", err)
	}
}

func TestInProcConcurrentCalls(t *testing.T) {
	tr := NewInProc()
	defer tr.Close()
	var served atomic.Uint64
	tr.Listen("svc", func(req []byte) ([]byte, error) {
		served.Add(1)
		return req, nil
	})
	var wg sync.WaitGroup
	const workers, calls = 8, 200
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < calls; i++ {
				resp, err := tr.Call("svc", []byte{byte(i)})
				if err != nil {
					t.Error(err)
					return
				}
				if len(resp) != 1 || resp[0] != byte(i) {
					t.Errorf("resp = %v, want [%d]", resp, byte(i))
					return
				}
			}
		}()
	}
	wg.Wait()
	if got := served.Load(); got != workers*calls {
		t.Fatalf("handler ran %d times, want %d", got, workers*calls)
	}
}

func TestTCPMultipleCallsSequential(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) {
		return append(req, '!'), nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		msg := []byte(fmt.Sprintf("m%d", i))
		resp, err := tr.Call(addr, msg)
		if err != nil {
			t.Fatal(err)
		}
		if want := string(msg) + "!"; string(resp) != want {
			t.Fatalf("resp = %q, want %q", resp, want)
		}
	}
}

func TestTCPLargePayload(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, _ := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) { return req, nil })
	big := bytes.Repeat([]byte{0xab}, 1<<20)
	resp, err := tr.Call(addr, big)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resp, big) {
		t.Fatal("large payload corrupted")
	}
}

func TestTCPEmptyPayload(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	addr, _ := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) { return nil, nil })
	resp, err := tr.Call(addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp) != 0 {
		t.Fatalf("resp = %v, want empty", resp)
	}
}

func TestTCPCallUnreachable(t *testing.T) {
	tr := NewTCP()
	defer tr.Close()
	if _, err := tr.Call("127.0.0.1:1", []byte("x")); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestTCPCloseUnblocksAccept(t *testing.T) {
	tr := NewTCP()
	if _, err := tr.Listen("127.0.0.1:0", func(b []byte) ([]byte, error) { return b, nil }); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		tr.Close()
		close(done)
	}()
	<-done // must not hang
}
