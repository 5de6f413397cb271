// Command hdknode is one peer of a multi-process HDK cluster: a daemon
// that serves its share of the replicated global index — insert, batched
// fetch, classification sweeps, replica repair and the cluster control
// plane — over pooled, length-prefixed TCP. A cluster is a set of
// hdknode processes plus a thin client (hdksearch -connect or the
// benchmark under bench/) that builds and queries the index through
// them.
//
// Every daemon is also a query coordinator: the hdk.search RPC runs the
// whole lattice traversal node-side against the daemon's own membership
// view (replica failover included), so a thin client (hdksearch
// -connect, the benchmark) pays one RPC per query instead of
// orchestrating the fan-out itself. Coordinations are bounded by a pool
// of 8 workers plus an admission queue 32 deep: when both are full the
// daemon sheds the request with an explicit overload rejection carrying
// a retry-after hint, instead of letting p99 grow without limit (the
// cluster.searchconfig RPC resizes both on a live daemon). Repeat queries are answered from a per-node
// query-result LRU (-search-cache) that every locally served index
// mutation invalidates.
//
// Usage:
//
//	hdknode -listen 127.0.0.1:7001                     # first node
//	hdknode -listen 127.0.0.1:0 -join 127.0.0.1:7001   # every further node
//
// With -data the daemon is durable: every index mutation is written
// through to an op log under the data directory (fsync policy via
// -fsync), the log is periodically compacted into a full-store snapshot,
// and a graceful shutdown seals the state into a fresh snapshot. A
// restarted daemon reloads its store fraction from disk (refusing index
// and search RPCs until the replay is done, so a coordinator reads the
// keys' other replicas meanwhile), rejoins through
// -join, pulls the delta it missed from its replica peers (a scoped
// catch-up, not a rebuild), and only then prints its banner:
//
//	hdknode -listen 127.0.0.1:7001 -data /var/lib/hdk/node0 \
//	    -join 127.0.0.1:7002   # warm restart: snapshot + log + catch-up
//
// The daemon prints "hdknode listening on <addr>" once bound AND ready
// to serve (the cluster harness and shell scripts parse this), then
// serves until SIGINT/SIGTERM, draining in-flight connections before
// exiting.
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/durable"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:0", "host:port to serve on (port 0 binds an ephemeral port)")
	join := flag.String("join", "", "address of any existing cluster member to join through")
	replicas := flag.Int("replicas", 1, "replication factor this cluster is intended to run at (advertised to clients)")
	dataDir := flag.String("data", "", "durable data directory (empty: index lives in RAM only)")
	fsync := flag.String("fsync", "always", "op-log fsync policy with -data: always|batch|never")
	compactBytes := flag.Int64("compact-bytes", 0, "op-log size triggering snapshot compaction (0: 4 MiB default, <0: only on shutdown)")
	searchCache := flag.Int("search-cache", -1, "query-result cache entries (-1: default 1024, 0: disable result caching)")
	httpAddr := flag.String("http", "", "host:port for the observability endpoint (/metrics, /healthz, /debug/pprof); empty: disabled, port 0 binds an ephemeral port")
	slowQuery := flag.Duration("slow-query", 0, "log coordinations slower than this to stderr, rate-limited to one line/s (0: disabled)")
	flag.Parse()

	if err := run(*listen, *join, *replicas, *dataDir, *fsync, *compactBytes, *searchCache, *httpAddr, *slowQuery); err != nil {
		fmt.Fprintln(os.Stderr, "hdknode:", err)
		os.Exit(1)
	}
}

func run(listen, join string, replicas int, dataDir, fsync string, compactBytes int64, searchCache int, httpAddr string, slowQuery time.Duration) error {
	var dur *durable.Store
	if dataDir != "" {
		policy, err := durable.ParsePolicy(fsync)
		if err != nil {
			return err
		}
		if dur, err = durable.Open(dataDir, durable.Options{Fsync: policy, CompactBytes: compactBytes}); err != nil {
			return err
		}
	}

	tr := transport.NewTCP()
	srv, err := cluster.NewServer(tr, listen, replicas)
	if err != nil {
		return err
	}
	srv.ConfigureSearch(0, -1, searchCache)
	srv.SetSlowQueryLog(slowQuery)
	// One registry per daemon: the server pre-registers the serving-path
	// instruments; the transport and durable store record onto the same
	// registry so cluster.metrics and /metrics export every layer.
	reg := srv.Metrics()
	tr.Instrument(reg)
	if dur != nil {
		dur.Instrument(reg)
	}
	goVersion, revision := buildInfo()
	registerBuildInfo(reg, goVersion, revision)
	if dur != nil {
		// Replay snapshot + op log BEFORE joining: a warm daemon
		// announces itself already holding its restored key inventory.
		opsReplayed, torn := len(dur.Ops()), dur.TruncatedOps()
		if err := srv.EnableDurability(dur); err != nil {
			tr.Close()
			return err
		}
		if srv.Warm() {
			fmt.Fprintf(os.Stderr, "hdknode %s: warm restart from %s (generation %d, %d ops replayed, %d torn records dropped)\n",
				srv.Addr(), dataDir, dur.Generation(), opsReplayed, torn)
		}
	}
	if join != "" {
		if err := srv.Join(join); err != nil {
			tr.Close()
			return err
		}
	}
	if srv.Warm() {
		// Pull the delta missed while down from the replica peers; only
		// then advertise readiness. A failed catch-up is not fatal — the
		// daemon serves its restored (possibly slightly stale) copies and
		// the operator can run a full repair — but it is loud.
		st, err := srv.CatchUp()
		if err != nil {
			fmt.Fprintf(os.Stderr, "hdknode %s: warm-rejoin catch-up failed: %v\n", srv.Addr(), err)
		} else {
			fmt.Fprintf(os.Stderr, "hdknode %s: catch-up: %d keys swept, %d stale, %d copies pulled\n",
				srv.Addr(), st.KeysSwept, st.UnderReplicated, st.CopiesSent)
		}
	}

	// The observability endpoint comes up only now — after recovery, join
	// and catch-up — so a 200 from /healthz means the daemon is actually
	// ready, not merely bound (the readiness scripts poll it).
	if httpAddr != "" {
		bound, err := startHTTP(httpAddr, reg)
		if err != nil {
			tr.Close()
			return err
		}
		// Machine-parsed like the listening banner below (the harness
		// reads both); printed first so a reader of the banner already
		// knows the scrape address.
		fmt.Printf("hdknode http on %s\n", bound)
	}

	// The banner goes to stdout (machine-parsed); everything else to
	// stderr.
	fmt.Printf("hdknode listening on %s\n", srv.Addr())
	os.Stdout.Sync()
	fmt.Fprintf(os.Stderr, "hdknode %s: serving (replicas=%d, join=%q, data=%q, go=%s, build=%s)\n",
		srv.Addr(), replicas, join, dataDir, goVersion, revision)

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	fmt.Fprintf(os.Stderr, "hdknode %s: %v, shutting down\n", srv.Addr(), <-sig)
	// Graceful exit: seal the durable state (log compacted into a fresh
	// snapshot) before tearing the transport down. SIGKILL skips this,
	// which is exactly what the op log is for.
	if err := srv.PersistShutdown(); err != nil {
		fmt.Fprintf(os.Stderr, "hdknode %s: persist on shutdown: %v\n", srv.Addr(), err)
	}
	return tr.Close()
}
