package cluster

import (
	"errors"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/transport"
)

// waitQueued polls the server's admitted-coordination counter until it
// reaches want.
func waitQueued(t *testing.T, s *Server, want int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		s.amu.Lock()
		got := s.searchQueued
		s.amu.Unlock()
		if got == want {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("searchQueued = %d, want %d", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// checkQueueDepth reads the server's queue-depth gauge from its
// registry snapshot.
func checkQueueDepth(t *testing.T, s *Server, want int) {
	t.Helper()
	if depth, ok := s.Metrics().Snapshot().Gauge(metricSearchQueueDepth); !ok || depth != float64(want) {
		t.Fatalf("%s = %v (present %t), want %d", metricSearchQueueDepth, depth, ok, want)
	}
}

// TestAdmitSearchBounds drives admitSearch through its three outcomes
// at several worker/queue sizes: immediate admission while a worker is
// free, a bounded wait while only queue slots are free, and an
// immediate shed with a positive retry-after hint past both.
func TestAdmitSearchBounds(t *testing.T) {
	cases := []struct{ workers, queue int }{
		{1, 0},
		{2, 2},
		{1, 3},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("w%dq%d", tc.workers, tc.queue), func(t *testing.T) {
			tr := transport.NewInProc()
			defer tr.Close()
			s, err := NewServer(tr, "node-a", 1)
			if err != nil {
				t.Fatal(err)
			}
			s.ConfigureSearch(tc.workers, tc.queue, -1)

			// Worker slots admit without blocking.
			releases := make([]func(), 0, tc.workers)
			for i := 0; i < tc.workers; i++ {
				rel, _ := s.admitSearch()
				if rel == nil {
					t.Fatalf("admit %d shed with all workers free", i)
				}
				releases = append(releases, rel)
			}
			// Queue slots admit but wait for a worker.
			queued := make(chan func(), tc.queue)
			for i := 0; i < tc.queue; i++ {
				go func() {
					rel, _ := s.admitSearch()
					queued <- rel
				}()
			}
			waitQueued(t, s, tc.workers+tc.queue)
			// The queue-depth gauge counts the requests waiting for a
			// worker: every queue slot, none of the running workers.
			checkQueueDepth(t, s, tc.queue)
			// Past workers+queue: immediate shed, positive hint.
			rel, retry := s.admitSearch()
			if rel != nil {
				rel()
				t.Fatal("over-limit request admitted, want shed")
			}
			if retry <= 0 {
				t.Fatalf("shed without a positive retry-after hint (%v)", retry)
			}
			// Releasing the workers lets every queued request through.
			for _, r := range releases {
				r()
			}
			for i := 0; i < tc.queue; i++ {
				r := <-queued
				if r == nil {
					t.Fatalf("queued admit %d was shed", i)
				}
				r()
			}
			waitQueued(t, s, 0)
			checkQueueDepth(t, s, 0)
			// Idle again: the next request is admitted immediately.
			if rel, _ := s.admitSearch(); rel == nil {
				t.Fatal("post-drain request shed on an idle server")
			} else {
				rel()
			}
		})
	}
}

// TestConfigureSearchResizeDoesNotStrand is the regression test for the
// resize bug: a coordination that acquired a permit before
// ConfigureSearch swapped the semaphore must release into the OLD
// channel (the closure binds it), not block on — or poison — the new
// one.
func TestConfigureSearchResizeDoesNotStrand(t *testing.T) {
	tr := transport.NewInProc()
	defer tr.Close()
	s, err := NewServer(tr, "node-a", 1)
	if err != nil {
		t.Fatal(err)
	}
	s.ConfigureSearch(1, 0, -1)
	rel, _ := s.admitSearch() // holds the only pre-resize permit
	s.ConfigureSearch(2, 0, -1)

	// With the old code (release read s.searchSem at run time) this
	// receive targets the NEW, empty channel and blocks forever.
	released := make(chan struct{})
	go func() {
		rel()
		close(released)
	}()
	select {
	case <-released:
	case <-time.After(5 * time.Second):
		t.Fatal("release after resize blocked — permit returned to the wrong pool")
	}
	waitQueued(t, s, 0)

	// The new pool serves its full capacity, and not more.
	r1, _ := s.admitSearch()
	r2, _ := s.admitSearch()
	if r1 == nil || r2 == nil {
		t.Fatal("resized pool shed within its worker capacity")
	}
	if r3, _ := s.admitSearch(); r3 != nil {
		r3()
		t.Fatal("resized pool admitted past workers+queue")
	}
	r1()
	r2()
	waitQueued(t, s, 0)
}

// admissionCluster boots a configured 2-daemon in-proc cluster with a
// built index and returns NoCache search requests for it, each with the
// answer the client-fabric engine gives serially: the lattice traversal
// run by the client, not by a daemon's coordinator.
func admissionCluster(t *testing.T) (tr transport.Transport, servers []*Server, c *Client, reqs []core.SearchRequest, want [][]rank.Result) {
	t.Helper()
	col := testCollection(t, 60)
	cfg := testConfig(col, 1)
	inproc := transport.NewInProc()
	t.Cleanup(func() { inproc.Close() })
	servers = startInProcServers(t, inproc, 2, 1)
	var err error
	c, err = Dial(Options{Transport: inproc, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	eng := buildClusterEngine(t, c, col, cfg)
	for _, q := range testQueries(col, 4) {
		res, err := eng.Search(q, c.Members()[0], 10)
		if err != nil {
			t.Fatal(err)
		}
		reqs = append(reqs, core.SearchRequest{Terms: eng.QueryTerms(q), K: 10, NoCache: true})
		want = append(want, res.Results)
	}
	return inproc, servers, c, reqs, want
}

// TestSearchOverloadOverWire pins the shed path end to end: a daemon
// with its worker pool saturated rejects a search over the wire with a
// typed, errors.Is-matchable overload error carrying a positive
// retry-after hint, counts the rejection in hdk_search_shed_total,
// serves cache hits anyway (admission guards coordination work, not
// cache reads), and accepts again once capacity frees up.
func TestSearchOverloadOverWire(t *testing.T) {
	tr, servers, c, reqs, _ := admissionCluster(t)
	req := reqs[0]
	s := servers[0]
	s.ConfigureSearch(1, 0, -1)

	// Warm the result cache while capacity is free.
	cacheable := req
	cacheable.NoCache = false
	warm, cached, err := c.TrySearchVia(s.Addr(), cacheable)
	if err != nil || cached {
		t.Fatalf("cache warm-up: err=%v cached=%v", err, cached)
	}

	rel, _ := s.admitSearch() // saturate the single worker
	_, _, err = c.TrySearchVia(s.Addr(), req)
	var ov *core.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("saturated daemon returned %v, want *core.OverloadError", err)
	}
	if !errors.Is(err, core.ErrOverloaded) {
		t.Fatal("overload error not matchable via errors.Is(err, core.ErrOverloaded)")
	}
	if ov.RetryAfter <= 0 {
		t.Fatalf("rejection carried hint %v, want positive", ov.RetryAfter)
	}

	// Cache hits bypass admission even while saturated.
	got, cached, err := c.TrySearchVia(s.Addr(), cacheable)
	if err != nil || !cached {
		t.Fatalf("cached search under saturation: err=%v cached=%v", err, cached)
	}
	if len(got.Results) != len(warm.Results) {
		t.Fatal("cached answer diverges under saturation")
	}

	snap, err := FetchMetrics(tr, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if shed := snap.CounterSum(metricSearchShed); shed != 1 {
		t.Fatalf("%s = %d, want 1", metricSearchShed, shed)
	}

	rel()
	if _, _, err := c.TrySearchVia(s.Addr(), req); err != nil {
		t.Fatalf("search after capacity freed: %v", err)
	}
}

// TestSearchViaBacksOffOnOverload pins the client side of the
// contract for both coordinated entry points, SearchVia and
// SearchTraceVia: the client keeps retrying a shedding daemon, sleeping
// at least the daemon's hint per rejection, and succeeds once capacity
// frees; against a daemon that never recovers it surfaces the overload
// error after exactly searchBackoffAttempts attempts.
func TestSearchViaBacksOffOnOverload(t *testing.T) {
	for _, tc := range []struct {
		name   string
		search func(c *Client, addr string, req core.SearchRequest) error
	}{
		{"SearchVia", func(c *Client, addr string, req core.SearchRequest) error {
			_, _, err := c.SearchVia(addr, req)
			return err
		}},
		{"SearchTraceVia", func(c *Client, addr string, req core.SearchRequest) error {
			_, trace, err := c.SearchTraceVia(addr, req)
			if err == nil && trace == nil {
				return errors.New("coordinated NoCache search returned no trace")
			}
			return err
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tr, servers, c, reqs, _ := admissionCluster(t)
			req := reqs[0]
			s := servers[0]
			s.ConfigureSearch(1, 0, -1)

			rejectedAt := func() uint64 {
				snap, err := FetchMetrics(tr, s.Addr())
				if err != nil {
					t.Fatal(err)
				}
				return snap.CounterSum(metricSearchShed)
			}

			rel, _ := s.admitSearch()
			start := time.Now()
			done := make(chan error, 1)
			go func() { done <- tc.search(c, s.Addr(), req) }()
			// Let the daemon shed at least two attempts before freeing
			// capacity: the client must have backed off twice.
			deadline := time.Now().Add(5 * time.Second)
			for rejectedAt() < 2 {
				if time.Now().After(deadline) {
					t.Fatal("client never retried against the saturated daemon")
				}
				time.Sleep(time.Millisecond)
			}
			rel()
			if err := <-done; err != nil {
				t.Fatalf("search after recovery: %v", err)
			}
			if elapsed := time.Since(start); elapsed < 2*searchRetryAfter {
				t.Fatalf("two rejections cost %v, want >= %v of backoff", elapsed, 2*searchRetryAfter)
			}

			// Never-recovering daemon: the overload surfaces after exactly
			// searchBackoffAttempts attempts.
			before := rejectedAt()
			rel2, _ := s.admitSearch()
			defer rel2()
			if err := tc.search(c, s.Addr(), req); !errors.Is(err, core.ErrOverloaded) {
				t.Fatalf("exhausted backoff returned %v, want ErrOverloaded", err)
			}
			if got := rejectedAt() - before; got != searchBackoffAttempts {
				t.Fatalf("exhaustion cost %d rejections, want %d", got, searchBackoffAttempts)
			}
		})
	}
}

// TestSearchConfigureSearchRace hammers SearchVia from concurrent
// clients while ConfigureSearch keeps resizing the worker pool, the
// admission queue and the result cache — the scenario the release-
// closure design exists for. Every answer a client receives, fresh or
// cached, must equal the client-fabric engine's serial answer to the
// same query: concurrent coordination changes nothing a query returns.
// Run under -race this doubles as a data-race check; in any mode it
// must neither deadlock nor strand permits.
func TestSearchConfigureSearchRace(t *testing.T) {
	_, servers, c, reqs, want := admissionCluster(t)
	addrs := []string{servers[0].Addr(), servers[1].Addr()}

	const clients = 4
	var wg sync.WaitGroup
	errs := make([]error, clients)
	for w := 0; w < clients; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				qi := (w + j) % len(reqs)
				r := reqs[qi]
				r.NoCache = j%2 == 0
				res, _, err := c.SearchVia(addrs[(w+j)%len(addrs)], r)
				// A shed under a tiny transient queue is legitimate;
				// anything else is a bug.
				if err != nil && !errors.Is(err, core.ErrOverloaded) {
					errs[w] = err
					return
				}
				if err == nil && !reflect.DeepEqual(want[qi], res.Results) {
					errs[w] = fmt.Errorf("query %d answered %v, want %v", qi, res.Results, want[qi])
					return
				}
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		for _, s := range servers {
			s.ConfigureSearch(1+i%4, i%3, (i%2)*64)
		}
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	for w, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", w, err)
		}
	}
	// Quiescent cluster: every permit came home.
	for _, s := range servers {
		waitQueued(t, s, 0)
		if rel, _ := s.admitSearch(); rel == nil {
			t.Fatal("idle post-race server sheds")
		} else {
			rel()
		}
	}
}

// TestConfigureSearchViaOverWire pins the cluster.searchconfig RPC: a
// live resize shipped through the client must take effect on the
// daemon's admission path (shedding once shrunk, accepting again once
// grown back), keep-current sentinels must leave settings untouched,
// and a malformed payload must be rejected.
func TestConfigureSearchViaOverWire(t *testing.T) {
	_, servers, c, reqs, _ := admissionCluster(t)
	req := reqs[0]
	s := servers[0]

	if err := c.ConfigureSearchVia(s.Addr(), 1, 0, -1); err != nil {
		t.Fatal(err)
	}
	s.amu.Lock()
	workers, queue := cap(s.searchSem), s.searchQueueCap
	s.amu.Unlock()
	if workers != 1 || queue != 0 {
		t.Fatalf("after resize: workers=%d queue=%d, want 1/0", workers, queue)
	}

	// Keep-current sentinels must not disturb the resized settings.
	if err := c.ConfigureSearchVia(s.Addr(), 0, -1, -1); err != nil {
		t.Fatal(err)
	}
	s.amu.Lock()
	workers, queue = cap(s.searchSem), s.searchQueueCap
	s.amu.Unlock()
	if workers != 1 || queue != 0 {
		t.Fatalf("keep-current resize drifted: workers=%d queue=%d, want 1/0", workers, queue)
	}

	// The shrunk daemon sheds while its single worker is busy...
	rel, _ := s.admitSearch()
	_, _, err := c.TrySearchVia(s.Addr(), req)
	var ov *core.OverloadError
	if !errors.As(err, &ov) {
		t.Fatalf("shrunk daemon returned %v, want *core.OverloadError", err)
	}
	// ...and a wire resize back up restores capacity mid-saturation.
	if err := c.ConfigureSearchVia(s.Addr(), 4, 8, -1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.TrySearchVia(s.Addr(), req); err != nil {
		t.Fatalf("search after wire-grown capacity: %v", err)
	}
	rel()

	if _, err := c.CallService(s.Addr(), ctrlSearchConfig, []byte("{not json")); err == nil {
		t.Fatal("malformed search config accepted")
	}
}
