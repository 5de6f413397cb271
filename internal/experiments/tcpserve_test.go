package experiments

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// TestTCPServeE2E boots a real 5-process hdknode cluster with the
// observability surface on (-http 127.0.0.1:0, -slow-query 1ns) and
// runs the serving scenario: a build over pooled TCP; every daemon
// coordinates queries (hdk.search) bit-identically to the in-process
// and client-fabric engines; repeat queries are served from the result
// caches with zero fetch RPCs; traced coordinations match the
// coordinator's own SearchResult and, span by span, the per-level
// fetch-RPC deltas in the client-fabric engine's registry (the series a
// daemon exports); the daemons' counter deltas equal the
// client-observed served/hit/miss counts EXACTLY, with nothing shed;
// every /healthz answers 200 "ok" and every /metrics exposition parses
// with a non-zero coordination p99 and the found-keys and local-fetches
// series; an incremental update invalidates every cache; after the
// owner of a probed key is SIGKILLed, coordination and the client
// fabric keep answering through replica failover with zero recall loss
// at R=3; once the dead member is forgotten every survivor still
// coordinates bit-identically, and a repair sweep restores full
// coverage; the client transport, counting onto the scenario's
// registry, dials far fewer connections than it sends RPCs. The
// daemons' stderr must also carry a "slow query" line. Admission
// shedding is not raced here: the cluster package's admission tests
// (TestAdmitSearchBounds, TestSearchOverloadOverWire,
// TestSearchViaBacksOffOnOverload) construct it step by step.
// This is a CI cluster-e2e gate. With SERVE_LOG_DIR set, the daemons'
// stderr is kept there (the CI artifact uploaded on failure).
func TestTCPServeE2E(t *testing.T) {
	bin := hdknodeBin(t)
	opts := DefaultClusterOpts()

	logDir := os.Getenv("SERVE_LOG_DIR")
	if logDir == "" {
		logDir = t.TempDir()
	}
	logPath := filepath.Join(logDir, "serve-nodes.log")
	logFile, err := os.Create(logPath)
	if err != nil {
		t.Fatal(err)
	}
	defer logFile.Close()

	h := &cluster.Harness{Bin: bin, Stderr: logFile}
	if err := h.Start(opts.Nodes, opts.Replicas, "-http", "127.0.0.1:0", "-slow-query", "1ns"); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	for i, addr := range h.HTTPAddrs() {
		if addr == "" {
			t.Fatalf("daemon %d printed no http banner", i)
		}
	}

	tr := transport.NewTCP()
	defer tr.Close()
	rep, err := TCPServe(tr, h.Addrs(), h.HTTPAddrs(), h.Kill, opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %+v", *rep)
	failOn(t, rep.Failures())

	// The operator-visible side of the slow-query log: at least one
	// rate-limited line on some daemon's stderr.
	logBytes, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(logBytes), "slow query") {
		t.Error("no 'slow query' line on any daemon's stderr with -slow-query 1ns")
	}
}

// TestTCPServeReportFailures pins the serving gates' predicate: a
// report that passes every gate has no failures, and breaking any one
// gate's field yields exactly one message.
func TestTCPServeReportFailures(t *testing.T) {
	good := TCPServeReport{
		Nodes: 5, Replicas: 3, Queries: 30,
		RepeatCached:  30,
		TracedQueries: 30,
		FreshServed:   60, CachedServed: 30, MissEligible: 30,
		SearchRPCDelta: 90, CacheHitDelta: 30, CacheMissDelta: 30,
		HealthOK: 5, ScrapeOK: 5, BuildInfoOK: 5, CoordCount: 60, CoordP99: 1e6, SlowLogged: 1,
		FoundKeysExposed: 5, LocalFetchesExposed: 5,
		ScrapedProbes: 100, ScrapedFoundKeys: 80, ScrapedFetchRPCs: 100, ScrapedLocalFetches: 20,
		FailoverBatches: 3, RecallAfterCrash: 1, FailoversPerQuery: 0.5,
		UnderAfterCrash: 7, RecallAfterRepair: 1,
		SearchRPCs: 400, CacheHits: 30,
		WireMessages: 1000, PoolDials: 10, PoolReuses: 990,
	}
	if f := good.Failures(); len(f) != 0 {
		t.Fatalf("passing report judged dirty: %q", f)
	}
	cases := map[string]func(*TCPServeReport){
		"fabric parity":          func(r *TCPServeReport) { r.ClientMismatches = 1 },
		"coordinated parity":     func(r *TCPServeReport) { r.CoordMismatches = 1 },
		"repeat not cached":      func(r *TCPServeReport) { r.RepeatCached = 29 },
		"repeat parity":          func(r *TCPServeReport) { r.RepeatMismatches = 1 },
		"repeat fetched":         func(r *TCPServeReport) { r.RepeatFetchRPCs = 1 },
		"nothing traced":         func(r *TCPServeReport) { r.TracedQueries = 0 },
		"trace levels":           func(r *TCPServeReport) { r.TraceMismatches = 1 },
		"trace shape":            func(r *TCPServeReport) { r.TraceSpanDefects = 1 },
		"traced parity":          func(r *TCPServeReport) { r.ResultMismatches = 1 },
		"search RPC delta":       func(r *TCPServeReport) { r.SearchRPCDelta++ },
		"cache hit delta":        func(r *TCPServeReport) { r.CacheHitDelta++ },
		"cache miss delta":       func(r *TCPServeReport) { r.CacheMissDelta++ },
		"shed delta":             func(r *TCPServeReport) { r.ShedDelta = 1 },
		"healthz":                func(r *TCPServeReport) { r.HealthOK = 4 },
		"coordination histogram": func(r *TCPServeReport) { r.CoordP99 = 0 },
		"queue depth":            func(r *TCPServeReport) { r.QueueDepth = 1 },
		"slow log":               func(r *TCPServeReport) { r.SlowLogged = 0 },
		"series exposed":         func(r *TCPServeReport) { r.LocalFetchesExposed = 4 },
		"found keys":             func(r *TCPServeReport) { r.ScrapedFoundKeys = 101 },
		"local fetches":          func(r *TCPServeReport) { r.ScrapedLocalFetches = 0 },
		"stale cache":            func(r *TCPServeReport) { r.PostUpdateCached = 1 },
		"post-update parity":     func(r *TCPServeReport) { r.PostUpdateMismatches = 1 },
		"failover parity":        func(r *TCPServeReport) { r.FailoverMismatches = 1 },
		"no failover":            func(r *TCPServeReport) { r.FailoverBatches = 0 },
		"recall after crash":     func(r *TCPServeReport) { r.RecallAfterCrash = 0.9 },
		"no fabric failover":     func(r *TCPServeReport) { r.FailoversPerQuery = 0 },
		"unrepaired parity":      func(r *TCPServeReport) { r.UnrepairedMismatches = 1 },
		"no deficit":             func(r *TCPServeReport) { r.UnderAfterCrash = 0 },
		"deficit after repair":   func(r *TCPServeReport) { r.UnderAfterRepair = 1 },
		"recall after repair":    func(r *TCPServeReport) { r.RecallAfterRepair = 0.9 },
		"repaired parity":        func(r *TCPServeReport) { r.RepairedMismatches = 1 },
		"serving counters":       func(r *TCPServeReport) { r.CacheHits = 0 },
		"pool unused":            func(r *TCPServeReport) { r.PoolReuses = 0 },
		"pool ineffective":       func(r *TCPServeReport) { r.PoolDials = 101 },
	}
	for name, mutate := range cases {
		rep := good
		mutate(&rep)
		if f := rep.Failures(); len(f) != 1 || rep.Clean() {
			t.Errorf("%s: %d failures %q, want exactly one", name, len(f), f)
		}
	}
}

// TestHDKSearchTraceE2E drives the interactive shell the way an
// operator debugging a query would: hdksearch -connect -trace against a
// 4-daemon cluster at R=2, one query typed on stdin, the daemon's span
// tree printed under the answer, then :stats. It asserts the rendered
// tree carries the coordination structure (root, levels, fetch waves,
// rank) and that :stats read the query's probes off the daemons'
// registries. Around the session it runs the troubleshooting flow for a
// dead member, hdksearch -connect LIVE -forget DEAD, twice: before the
// build, where the forget is a leave and no sweep runs, and after it,
// where the sweep must ship copies until every survivor reports its
// view repaired and a fresh client's audit finds no key short of R.
func TestHDKSearchTraceE2E(t *testing.T) {
	nodeBin := hdknodeBin(t)
	searchBin := filepath.Join(t.TempDir(), "hdksearch")
	if out, err := exec.Command("go", "build", "-o", searchBin, "repro/cmd/hdksearch").CombinedOutput(); err != nil {
		t.Fatalf("build hdksearch: %v\n%s", err, out)
	}

	const replicas = 2
	h := &cluster.Harness{Bin: nodeBin, Stderr: os.Stderr}
	if err := h.Start(4, replicas); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()
	addrs := h.Addrs()
	// forgetDead SIGKILLs daemon i, forgets it through addrs[0] and
	// returns the copies the command's repair sweep shipped.
	forgetDead := func(i int) int {
		t.Helper()
		if err := h.Kill(i); err != nil {
			t.Fatal(err)
		}
		out, err := exec.Command(searchBin, "-connect", addrs[0], "-forget", addrs[i]).CombinedOutput()
		if err != nil {
			t.Fatalf("hdksearch -forget %s: %v\n%s", addrs[i], err, out)
		}
		_, shipped, ok := strings.Cut(string(out), "repair sweep shipped ")
		copies, err := strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(shipped), " copies"))
		if !ok || err != nil {
			t.Fatalf("hdksearch -forget %s printed no copy count:\n%s", addrs[i], out)
		}
		return copies
	}
	if copies := forgetDead(3); copies != 0 {
		t.Fatalf("forget before any build shipped %d copies, want 0 (no sweep)", copies)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	cmd := exec.CommandContext(ctx, searchBin,
		"-connect", addrs[0], "-trace", "-docs", "120", "-dfmax", "8")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		t.Fatal(err)
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	defer func() {
		cmd.Process.Kill()
		cmd.Wait()
	}()

	// Read until the shell prints its sample vocabulary, type a query
	// from it, quit, and collect everything the shell printed.
	var out strings.Builder
	sc := bufio.NewScanner(stdout)
	queried := false
	for sc.Scan() {
		line := sc.Text()
		out.WriteString(line)
		out.WriteByte('\n')
		if rest, ok := strings.CutPrefix(line, "sample vocabulary: "); ok && !queried {
			terms := strings.Fields(rest)
			if len(terms) == 0 {
				t.Fatal("empty sample vocabulary")
			}
			fmt.Fprintf(stdin, "%s\n:stats\n:quit\n", strings.Join(terms[:min(2, len(terms))], " "))
			stdin.Close()
			queried = true
		}
	}
	if err := sc.Err(); err != nil && err != io.EOF {
		t.Fatal(err)
	}
	if err := cmd.Wait(); err != nil {
		t.Fatalf("hdksearch exited: %v\noutput:\n%s", err, out.String())
	}
	if !queried {
		t.Fatalf("shell never printed its sample vocabulary:\n%s", out.String())
	}

	// The span tree under the answer: the coordination root plus at
	// least one lattice level with its fetch wave, and the final rank.
	text := out.String()
	for _, span := range []string{"coordinate", "level", "fetch", "rank"} {
		if !strings.Contains(text, span) {
			t.Errorf("span tree missing %q:\n%s", span, text)
		}
	}
	if strings.Contains(text, "queries: 0 lattice probes") || !strings.Contains(text, "queries: ") {
		t.Errorf(":stats did not count the query's probes:\n%s", text)
	}
	if !strings.Contains(text, "connected to 3 hdknode processes") {
		t.Errorf("session after the forget did not see 3 members:\n%s", text)
	}

	// A built fleet owes a repair once a member is forgotten: the
	// command sweeps it, and afterwards nothing is owed or short.
	if copies := forgetDead(2); copies <= 0 {
		t.Fatalf("forget on a built fleet shipped %d copies, want > 0", copies)
	}
	tr := transport.NewTCP()
	defer tr.Close()
	for _, addr := range addrs[:2] {
		info, err := cluster.FetchInfo(tr, addr)
		if err != nil {
			t.Fatal(err)
		}
		if info.Unrepaired {
			t.Errorf("%s still reports an unrepaired view after -forget", addr)
		}
	}
	c, err := cluster.Dial(cluster.Options{Transport: tr, Seed: addrs[0]})
	if err != nil {
		t.Fatal(err)
	}
	if st, err := c.Audit(replicas); err != nil || st.UnderReplicated != 0 {
		t.Errorf("audit after -forget: %d keys under-replicated (err %v), want 0", st.UnderReplicated, err)
	}
}
