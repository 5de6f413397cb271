// Command hdksearch is an interactive search shell over an HDK-indexed
// synthetic collection: it builds a peer network, indexes the collection
// with highly discriminative keys, and answers queries typed on stdin,
// reporting the per-query traffic next to each result list.
//
// Usage:
//
//	hdksearch [-docs N] [-peers N] [-dfmax N] [-topk N] [-replicas R]
//	hdksearch -connect HOST:PORT [-trace] [-forget HOST:PORT] [-docs N] ...
//
// By default the peer network is simulated in-process. With -connect the
// shell becomes the thin client of a REAL cluster: it discovers the
// hdknode daemons behind the given address, streams each daemon its
// corpus shard over the chunked resumable hdk.ingest session
// (-build-chunk-bytes sets the chunk payload target), and asks a daemon
// to coordinate the round-synchronous index build node-side (hdk.build)
// — the shell never runs a build round and holds no peer state
// (-peers is ignored — the cluster size decides; -replicas defaults to
// the factor the daemons advertise). Each query is then ONE hdk.search
// RPC to the -connect daemon, which runs the whole lattice traversal
// node-side and may answer from its query-result cache; -trace prints
// the daemon's span tree under each answer.
//
// Type a query (space-separated terms from the printed sample
// vocabulary), or one of the commands:
//
//	:stats   print index statistics and the counted query work
//	:doc N   print document N's terms
//	:quit    exit
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

func main() {
	docs := flag.Int("docs", 400, "number of synthetic documents")
	peers := flag.Int("peers", 8, "number of peers (in-process mode only)")
	dfmax := flag.Int("dfmax", 12, "DFmax discriminative threshold")
	topk := flag.Int("topk", 10, "results per query")
	replicas := flag.Int("replicas", 1, "R-way key replication factor (searches fail over between replicas)")
	connect := flag.String("connect", "", "address of any hdknode daemon: build and query a running multi-process cluster")
	trace := flag.Bool("trace", false, "with -connect: ask the daemon for a per-query span tree (admission, cache, per-level fetch waves) and print it under each answer")
	forget := flag.String("forget", "", "with -connect: drop this dead member's address from the cluster membership and re-replicate what it held, before building")
	chunkBytes := flag.Int("build-chunk-bytes", 0, "with -connect: hdk.ingest chunk payload target in bytes (0 = cluster default)")
	flag.Parse()
	replicasSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replicas" {
			replicasSet = true
		}
	})

	if err := run(*docs, *peers, *dfmax, *topk, *replicas, *chunkBytes, *connect, *forget, *trace, replicasSet); err != nil {
		fmt.Fprintln(os.Stderr, "hdksearch:", err)
		os.Exit(1)
	}
}

func run(docs, peers, dfmax, topk, replicas, chunkBytes int, connect, forget string, trace, replicasSet bool) error {
	if forget != "" && connect == "" {
		return fmt.Errorf("-forget requires -connect (it edits a live cluster's membership)")
	}
	if chunkBytes != 0 && connect == "" {
		return fmt.Errorf("-build-chunk-bytes requires -connect (the in-process engine does not stream)")
	}
	if trace && connect == "" {
		return fmt.Errorf("-trace requires -connect (the span tree is recorded by the coordinating daemon)")
	}
	p := corpus.DefaultGenParams(docs)
	p.AvgDocLen = 80
	col, err := corpus.Generate(p)
	if err != nil {
		return err
	}

	var (
		fabric overlay.Fabric
		clu    *cluster.Client
		tcp    *transport.TCP
	)
	if connect != "" {
		tcp = transport.NewTCP()
		defer tcp.Close()
		if !replicasSet {
			info, err := cluster.FetchInfo(tcp, connect)
			if err != nil {
				return fmt.Errorf("connect %s: %w", connect, err)
			}
			replicas = info.Replicas
		}
		if clu, err = cluster.Dial(cluster.Options{Transport: tcp, Seed: connect, ChunkBytes: chunkBytes}); err != nil {
			return err
		}
		if forget != "" {
			// Operator cleanup: a crashed daemon stays in the grow-only
			// bootstrap membership until someone forgets it.
			if !clu.RemoveNode(overlay.HashNode(forget)) {
				return fmt.Errorf("forget %s: not in the cluster membership", forget)
			}
			if err := clu.Forget(forget); err != nil {
				return err
			}
			// The replica sets the dead member belonged to are one copy
			// short (unless someone already swept), and the daemons read
			// primary-first until a sweep over the new membership says
			// they are whole.
			st, err := clu.Repairer(replicas).Repair()
			if err != nil {
				return fmt.Errorf("repair after forgetting %s: %w", forget, err)
			}
			fmt.Printf("forgot dead member %s on all live daemons; repair sweep shipped %d copies\n", forget, st.CopiesSent)
		}
		peers = clu.Size()
		fabric = clu
		fmt.Printf("connected to %d hdknode processes via %s\n", peers, connect)
	} else {
		net := overlay.NewNetwork(transport.NewInProc())
		for i := 0; i < peers; i++ {
			if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
				return err
			}
		}
		fabric = net
	}

	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = dfmax
	cfg.Window = 10
	cfg.ReplicationFactor = replicas
	eng, err := core.NewEngine(fabric, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return err
	}
	members := fabric.Members()
	if clu != nil {
		// Streamed coordinator-side build: ship each daemon its shard
		// over hdk.ingest (document j to ring member j%n — the same
		// placement the in-process path uses), then let a daemon
		// coordinate the round-synchronous build. The shell holds one
		// document at a time and runs zero rounds; the engine above is a
		// query-only view (global vocabulary and statistics, no peers).
		fmt.Printf("streaming %d docs to %d hdknode processes (DFmax=%d, w=%d, smax=%d, R=%d, %d-byte chunks)...\n",
			col.M(), peers, cfg.DFMax, cfg.Window, cfg.SMax, cfg.ReplicationFactor, clu.ChunkTarget())
		for i, m := range members {
			st, err := clu.Ingest(m.Addr(), cluster.ShardSource(col, cfg, 1, i, peers))
			if err != nil {
				return err
			}
			fmt.Printf("  %s: %d docs in %d chunks (%d shipped, %d already held)\n",
				m.Addr(), st.Docs, st.Chunks, st.ChunksSent, st.ChunksSkipped)
		}
		lastRound := -1
		if err := clu.BuildRemote(connect, func(info cluster.Info) {
			if info.BuildRound > 0 && info.BuildRound != lastRound {
				lastRound = info.BuildRound
				fmt.Printf("  build round %d/%d\n", info.BuildRound, cfg.SMax)
			}
		}); err != nil {
			return err
		}
	} else {
		for i, part := range col.SplitRoundRobin(peers) {
			if _, err := eng.AddPeer(members[i], part); err != nil {
				return err
			}
		}
		fmt.Printf("indexing %d docs over %d peers (DFmax=%d, w=%d, smax=%d, R=%d)...\n",
			col.M(), peers, cfg.DFMax, cfg.Window, cfg.SMax, cfg.ReplicationFactor)
		if err := eng.BuildIndex(); err != nil {
			return err
		}
	}
	printIndexReady(eng, clu)
	fmt.Printf("sample vocabulary: %s\n", strings.Join(col.Vocab[40:52], " "))
	fmt.Println(`type a query, ":stats", ":doc N" or ":quit"`)

	termID := make(map[string]corpus.TermID, len(col.Vocab))
	for i, s := range col.Vocab {
		termID[s] = corpus.TermID(i)
	}

	origin := members[0]
	sc := bufio.NewScanner(os.Stdin)
	for {
		fmt.Print("> ")
		if !sc.Scan() {
			break
		}
		line := strings.TrimSpace(sc.Text())
		switch {
		case line == "":
			continue
		case line == ":quit":
			return nil
		case line == ":stats":
			printStats(eng, fabric, clu, tcp)
			continue
		case strings.HasPrefix(line, ":doc "):
			printDoc(col, strings.TrimPrefix(line, ":doc "))
			continue
		}
		q, unknown := parseQuery(line, termID)
		if len(unknown) > 0 {
			fmt.Printf("unknown terms ignored: %s\n", strings.Join(unknown, " "))
		}
		if len(q.Terms) == 0 {
			fmt.Println("no known terms in query")
			continue
		}
		var res *core.SearchResult
		var span *telemetry.Trace
		cost := ""
		if clu != nil {
			// One RPC: the daemon behind -connect coordinates the whole
			// traversal and may answer straight from its result cache.
			req := core.SearchRequest{Terms: eng.QueryTerms(q), K: topk}
			if trace {
				res, span, err = clu.SearchTraceVia(connect, req)
				if err == nil && span == nil {
					cost = " [coordinator cache]"
				}
			} else {
				var cached bool
				res, cached, err = clu.SearchVia(connect, req)
				if cached {
					cost = " [coordinator cache]"
				}
			}
		} else {
			res, err = eng.Search(q, origin, topk)
		}
		if err != nil {
			return err
		}
		fmt.Printf("%d results | probed %d keys, found %d, fetched %d postings | %d batched RPCs over %d levels%s\n",
			len(res.Results), res.ProbedKeys, res.FoundKeys, res.FetchedPosts, res.RPCs, res.Rounds, cost)
		for i, r := range res.Results {
			fmt.Printf("%2d. doc %-6d score %.3f\n", i+1, r.Doc, r.Score)
		}
		if span != nil {
			fmt.Print(span.Format())
		}
	}
	return sc.Err()
}

func parseQuery(line string, termID map[string]corpus.TermID) (corpus.Query, []string) {
	var q corpus.Query
	var unknown []string
	for _, tok := range strings.Fields(line) {
		if id, ok := termID[tok]; ok {
			q.Terms = append(q.Terms, id)
		} else {
			unknown = append(unknown, tok)
		}
	}
	return q, unknown
}

// printIndexReady reports the resident index size: from the engine's own
// stores in-process, from the daemons' stores over RPC in connect mode.
func printIndexReady(eng *core.Engine, clu *cluster.Client) {
	if clu == nil {
		stats := eng.Stats()
		fmt.Printf("index ready: %d keys, %d postings stored\n", stats.KeysTotal, stats.StoredTotal)
		return
	}
	nodeStats, err := clu.StoreStats()
	if err != nil {
		fmt.Printf("index ready (store stats unavailable: %v)\n", err)
		return
	}
	posts, keys := 0, 0
	for _, ns := range nodeStats {
		posts += ns.Stats.PostsTotal()
		keys += ns.Stats.KeysTotal()
	}
	fmt.Printf("index ready: %d keys, %d postings stored across %d processes\n", keys, posts, len(nodeStats))
}

// printStats reports the index and the counted query work: the
// engine's own registry in-process, the daemons' registries (every
// client's queries, cluster-wide) over cluster.metrics in connect mode.
func printStats(eng *core.Engine, fabric overlay.Fabric, clu *cluster.Client, tcp *transport.TCP) {
	if clu == nil {
		stats := eng.Stats()
		snap := eng.Metrics().Snapshot()
		fmt.Printf("keys by size: 1:%d 2:%d 3:%d | stored postings %d | inserted %d\n",
			stats.KeysBySize[1], stats.KeysBySize[2], stats.KeysBySize[3],
			stats.StoredTotal, snap.CounterSum("hdk_build_inserted_postings_total"))
		if net, ok := fabric.(*overlay.Network); ok {
			st := net.TransportStats()
			fmt.Printf("transport: %d msgs, %d bytes\n", st.Messages, st.Bytes)
		}
		printQueries(snap)
		return
	}
	nodeStats, err := clu.StoreStats()
	if err != nil {
		fmt.Printf("store stats unavailable: %v\n", err)
	} else {
		for _, ns := range nodeStats {
			fmt.Printf("  %s: %d keys, %d postings\n", ns.Addr, ns.Stats.KeysTotal(), ns.Stats.PostsTotal())
		}
	}
	var dials, reuses, stale uint64
	snaps := make([]telemetry.Snapshot, 0, clu.Size())
	for _, m := range clu.Members() {
		snap, err := cluster.FetchMetrics(tcp, m.Addr())
		if err != nil {
			fmt.Printf("metrics of %s unavailable: %v\n", m.Addr(), err)
			continue
		}
		dials += snap.CounterSum("hdk_transport_dials_total")
		reuses += snap.CounterSum("hdk_transport_pool_reuses_total")
		stale += snap.CounterSum("hdk_transport_stale_retries_total")
		snaps = append(snaps, snap)
	}
	fmt.Printf("daemon pools: %d dials, %d reuses, %d stale retries\n", dials, reuses, stale)
	printQueries(snaps...)
}

// printQueries sums the traversal series over registry snapshots.
func printQueries(snaps ...telemetry.Snapshot) {
	var probes, rpcs, rounds, failovers uint64
	for _, snap := range snaps {
		probes += snap.CounterSum("hdk_query_probes_total")
		rpcs += snap.CounterSum("hdk_query_fetch_rpcs_total")
		failovers += snap.CounterSum("hdk_query_failovers_total")
		for size := 1; size <= core.MaxKeySize; size++ {
			hv, _ := snap.Histogram("hdk_query_level_nanoseconds", telemetry.L("level", strconv.Itoa(size)))
			rounds += hv.Count
		}
	}
	fmt.Printf("queries: %d lattice probes answered by %d batched fetch RPCs over %d levels (%d replica failovers)\n",
		probes, rpcs, rounds, failovers)
}

func printDoc(col *corpus.Collection, arg string) {
	id, err := strconv.Atoi(strings.TrimSpace(arg))
	if err != nil || id < 0 || id >= col.M() {
		fmt.Println("bad document id")
		return
	}
	fmt.Println(col.Text(&col.Docs[id]))
}
