package main

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// loadClients is the closed-loop client count: callers of hdk.search wait
// for their reply, so a closed loop is the honest shape, and the
// generator shares the box with the daemons, so it takes no more clients
// than there are processors.
func loadClients() int {
	if n := runtime.NumCPU(); n < 4 {
		return n
	}
	return 4
}

// phase is one stretch of the request stream: [from, to) as offsets from
// the stream's start. A traced phase sends every request with the trace
// flag and keeps the returned span trees.
type phase struct {
	from, to time.Duration
	traced   bool
}

// loadResult is what the clients saw. Samples hold successful requests
// only; failed counts errors and sheds by the offset at which they came
// back, so each phase can be charged its own.
type loadResult struct {
	samples  []sample
	failures []time.Duration
	spans    []requestTrace // traced phases only
	firstErr error
}

// counts reports the requests that came back within [from, to).
func (r *loadResult) counts(from, to time.Duration) (ok, failed int) {
	for _, s := range r.samples {
		if s.done >= from && s.done < to {
			ok++
		}
	}
	for _, f := range r.failures {
		if f >= from && f < to {
			failed++
		}
	}
	return ok, failed
}

// requestTrace is one traced request as the harness saw it: the client's
// own wall time around the call and the daemon's span tree (nil when the
// daemon answered from its result cache, which skips coordination).
type requestTrace struct {
	start   time.Duration // offset from the stream's start
	latency time.Duration
	query   int
	trace   *telemetry.Trace
}

// runLoad drives the workload's request stream until the last phase ends:
// one goroutine per client, each with its own transport (so its own
// connections), coordinators rotated round-robin, every request a single
// attempt so that a shed request is a failure and not a retry. atPhase is
// called on the controlling goroutine as each phase begins, and once more
// when the last ends; it is where the daemons' counters are read.
func runLoad(w workload, seed int64, addrs []string, terms [][]string, phases []phase, atPhase func(i int) error) (*loadResult, error) {
	clients := loadClients()
	offsets := clientOffsets(seed, clients, len(terms))
	end := phases[len(phases)-1].to
	tracedAt := func(d time.Duration) bool {
		for _, p := range phases {
			if d >= p.from && d < p.to {
				return p.traced
			}
		}
		return false
	}

	results := make([]loadResult, clients)
	var stop atomic.Bool // set when a phase hook fails, so the clients do not run the stream out
	var wg sync.WaitGroup
	start := time.Now()
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			res := &results[ci]
			tr := transport.NewTCP()
			defer tr.Close()
			c, err := cluster.Dial(cluster.Options{Transport: tr, Addrs: addrs})
			if err != nil {
				res.firstErr = err
				return
			}
			var zipf *zipfSampler
			if w.zipf {
				zipf = newZipfSampler(len(terms), zipfS, derive(seed, streamZipf+ci))
			}
			for n := 0; ; n++ {
				t0 := time.Since(start)
				if t0 >= end || stop.Load() {
					return
				}
				qi := (offsets[ci] + n) % len(terms)
				if zipf != nil {
					qi = zipf.next()
				}
				req := core.SearchRequest{Terms: terms[qi], K: topK, NoCache: w.noCache}
				addr := addrs[(ci+n)%len(addrs)]
				var err error
				var trace *telemetry.Trace
				traced := tracedAt(t0)
				if traced {
					_, trace, err = c.SearchTraceVia(addr, req)
				} else {
					_, _, err = c.TrySearchVia(addr, req)
				}
				t1 := time.Since(start)
				if err != nil {
					res.failures = append(res.failures, t1)
					if res.firstErr == nil {
						res.firstErr = err
					}
					continue
				}
				res.samples = append(res.samples, sample{done: t1, latency: t1 - t0})
				if traced {
					res.spans = append(res.spans, requestTrace{start: t0, latency: t1 - t0, query: qi, trace: trace})
				}
			}
		}(ci)
	}

	var phaseErr error
	for i := 0; i <= len(phases) && phaseErr == nil; i++ {
		at := end
		if i < len(phases) {
			at = phases[i].from
		}
		time.Sleep(at - time.Since(start))
		phaseErr = atPhase(i)
	}
	stop.Store(phaseErr != nil)
	wg.Wait()
	if phaseErr != nil {
		return nil, phaseErr
	}

	var all loadResult
	for i := range results {
		r := &results[i]
		all.samples = append(all.samples, r.samples...)
		all.failures = append(all.failures, r.failures...)
		all.spans = append(all.spans, r.spans...)
		if all.firstErr == nil {
			all.firstErr = r.firstErr
		}
	}
	if len(all.samples) == 0 {
		return nil, fmt.Errorf("no request succeeded: %v", all.firstErr)
	}
	return &all, nil
}
