package core

import (
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// withProcs runs fn with GOMAXPROCS at n, the number of peers each build
// round indexes at once.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

func TestParallelBuildMatchesSerial(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)

	build := func(procs int) *Engine {
		eng := buildEngine(t, col, 4, cfg)
		withProcs(procs, func() {
			if err := eng.BuildIndex(); err != nil {
				t.Fatal(err)
			}
		})
		return eng
	}
	serial, parallel := build(1), build(4)
	want, got := serial.Stats(), parallel.Stats()
	wantKeys, gotKeys := collectIndexKeys(t, serial), collectIndexKeys(t, parallel)

	if got.StoredTotal != want.StoredTotal || got.KeysTotal != want.KeysTotal {
		t.Fatalf("parallel stored/keys %d/%d, serial %d/%d",
			got.StoredTotal, got.KeysTotal, want.StoredTotal, want.KeysTotal)
	}
	for s := range wantKeys {
		if len(gotKeys[s]) != len(wantKeys[s]) {
			t.Fatalf("size %d: %d keys parallel vs %d serial", s, len(gotKeys[s]), len(wantKeys[s]))
		}
		for k, st := range wantKeys[s] {
			if gotKeys[s][k] != st {
				t.Fatalf("size %d key %v: status %v parallel vs %v serial", s, k.Terms(), gotKeys[s][k], st)
			}
		}
	}
	// Traffic totals commute too.
	if counted(parallel, metricBuildInsertedPostings) != counted(serial, metricBuildInsertedPostings) {
		t.Fatal("inserted-posting totals differ between parallel and serial builds")
	}
}

// TestParallelIncrementalBuildMatchesSerial runs the same incremental
// wave serially and with four peers indexing at once: the updated
// indexes must be byte-identical.
func TestParallelIncrementalBuildMatchesSerial(t *testing.T) {
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)
	wave := func(procs int) (digest string, inserted uint64) {
		eng, _ := buildPrefixEngine(t, col, 40, 4, cfg)
		if err := eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		stageRest(t, eng, col, 40)
		withProcs(procs, func() {
			if err := eng.BuildIndex(); err != nil {
				t.Fatal(err)
			}
		})
		return indexDigest(t, eng), counted(eng, metricBuildInsertedPostings)
	}
	serial, serialInserted := wave(1)
	parallel, parallelInserted := wave(4)
	if serial != parallel || serialInserted != parallelInserted {
		t.Fatalf("parallel wave: digest %s, %d inserted; serial %s, %d inserted",
			parallel, parallelInserted, serial, serialInserted)
	}
}

// goid returns the running goroutine's id, parsed off its stack header
// ("goroutine 12 [running]:") — good enough to tell goroutines apart in
// a test.
func goid() string {
	var buf [64]byte
	fields := strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))
	return fields[1]
}

func TestForEachLimitVisitsEachIndexOnce(t *testing.T) {
	for _, tc := range []struct{ n, limit int }{
		{0, 4}, {1, 8}, {5, 1}, {5, 0}, {7, 3}, {3, 100}, {1000, 8},
	} {
		visits := make([]atomic.Int32, tc.n)
		var mu sync.Mutex
		workers := map[string]bool{}
		forEachLimit(tc.n, tc.limit, func(i int) {
			visits[i].Add(1)
			mu.Lock()
			workers[goid()] = true
			mu.Unlock()
		})
		for i := range visits {
			if v := visits[i].Load(); v != 1 {
				t.Fatalf("n=%d limit=%d: index %d visited %d times", tc.n, tc.limit, i, v)
			}
		}
		if maxWorkers := max(1, min(tc.n, tc.limit)); len(workers) > maxWorkers {
			t.Fatalf("n=%d limit=%d: %d goroutines ran work, want <= %d", tc.n, tc.limit, len(workers), maxWorkers)
		}
		// One index or one slot: nothing to overlap, so nothing is spawned.
		if tc.n > 0 && (tc.n == 1 || tc.limit <= 1) && !workers[goid()] {
			t.Fatalf("n=%d limit=%d: work ran on %v, not on the caller", tc.n, tc.limit, workers)
		}
	}
}

// TestForEachLimitCallerIsAWorker holds every index at a barrier that
// opens only once `limit` goroutines are inside fn at the same time.
// forEachLimit spawns limit-1, so the barrier opens only if the caller is
// working too instead of parked in Wait.
func TestForEachLimitCallerIsAWorker(t *testing.T) {
	const limit = 4
	var arrived sync.WaitGroup
	arrived.Add(limit)
	var mu sync.Mutex
	workers := map[string]bool{}
	done := make(chan struct{})
	go func() {
		defer close(done)
		forEachLimit(limit, limit, func(int) {
			mu.Lock()
			workers[goid()] = true
			mu.Unlock()
			arrived.Done()
			arrived.Wait()
		})
		if !workers[goid()] {
			t.Errorf("caller did no work; workers were %v", workers)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("barrier never opened: fewer than `limit` goroutines ran work")
	}
}
