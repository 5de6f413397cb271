// Command hdksearch is an interactive search shell over an HDK-indexed
// synthetic collection: it builds a peer network, indexes the collection
// with highly discriminative keys, and answers queries typed on stdin,
// reporting the per-query traffic next to each result list.
//
// Usage:
//
//	hdksearch [-docs N] [-peers N] [-dfmax N] [-topk N] [-replicas R] [-trace]
//	hdksearch -connect HOST:PORT [-docs N] ...
//	hdksearch -connect HOST:PORT -forget HOST:PORT [-replicas R]
//
// The shell is the thin client of a cluster of daemons. With -connect
// it discovers the hdknode processes behind the given address (-peers
// is ignored — the cluster size decides; -replicas defaults to the
// factor the daemons advertise); without it, it first starts -peers
// in-process daemons (cluster.Server on one in-process transport) and
// then runs the same code against them. It streams each daemon its
// corpus shard over the chunked resumable hdk.ingest session and asks a
// daemon to coordinate the round-synchronous index build node-side
// (hdk.build) — the shell never runs a build round and holds no peer
// state. Each query is then ONE hdk.search RPC to that daemon, which
// runs the whole lattice traversal node-side and may answer from its
// query-result cache; -trace prints the daemon's span tree under each
// answer.
//
// With -forget the shell is a one-shot operator command instead: it
// drops a dead member from every live daemon's membership, runs the
// repair sweep if the seed daemon then reports its view unrepaired (a
// fleet that never built owes nothing), prints what the sweep shipped
// and exits. Nothing is ingested, built or queried.
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
	"repro/internal/rank"
	"repro/internal/telemetry"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

func main() {
	docs := flag.Int("docs", 400, "number of synthetic documents")
	peers := flag.Int("peers", 8, "number of in-process daemons to start (without -connect)")
	dfmax := flag.Int("dfmax", 12, "DFmax discriminative threshold")
	topk := flag.Int("topk", 10, "results per query")
	replicas := flag.Int("replicas", 1, "R-way key replication factor (searches fail over between replicas)")
	connect := flag.String("connect", "", "address of any hdknode daemon: build and query a running multi-process cluster")
	trace := flag.Bool("trace", false, "ask the coordinating daemon for a per-query span tree (admission, cache, per-level fetch waves) and print it under each answer")
	forget := flag.String("forget", "", "with -connect: drop this dead member's address from the cluster membership, re-replicate what it held if the fleet was built, and exit")
	flag.Parse()
	replicasSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "replicas" {
			replicasSet = true
		}
	})

	if err := run(*docs, *peers, *dfmax, *topk, *replicas, *connect, *forget, *trace, replicasSet); err != nil {
		fmt.Fprintln(os.Stderr, "hdksearch:", err)
		os.Exit(1)
	}
}

func run(docs, peers, dfmax, topk, replicas int, connect, forget string, trace, replicasSet bool) error {
	if forget != "" && connect == "" {
		return fmt.Errorf("-forget requires -connect (it edits a live cluster's membership)")
	}
	tr, seed, daemons, err := boot(connect, peers, replicas)
	if err != nil {
		return err
	}
	defer tr.Close()
	clu, err := cluster.Dial(cluster.Options{Transport: tr, Seed: seed})
	if err != nil {
		return err
	}
	if forget != "" {
		// Operator cleanup: a crashed daemon stays in the grow-only
		// bootstrap membership until someone forgets it.
		if m, ok := clu.View().Member(forget); !ok || !clu.RemoveNode(m.ID()) {
			return fmt.Errorf("forget %s: not in the cluster membership", forget)
		}
		if err := clu.Forget(forget); err != nil {
			return err
		}
	}
	info, err := cluster.FetchInfo(tr, seed)
	if err != nil {
		return fmt.Errorf("connect %s: %w", seed, err)
	}
	if !replicasSet {
		replicas = info.Replicas
	}
	if forget != "" {
		// The replica sets the dead member belonged to are one copy
		// short, and the daemons read primary-first until a sweep over
		// the new membership says they are whole. A fleet that never
		// built treated the forget as a leave and owes nothing.
		copies := 0
		if info.Unrepaired {
			st, err := clu.Repairer(replicas).Repair()
			if err != nil {
				return fmt.Errorf("repair after forgetting %s: %w", forget, err)
			}
			copies = st.CopiesSent
		}
		fmt.Printf("forgot dead member %s on all %d live daemons; repair sweep shipped %d copies\n", forget, clu.Size(), copies)
		return nil
	}
	p := corpus.DefaultGenParams(docs)
	p.AvgDocLen = 80
	col, err := corpus.Generate(p)
	if err != nil {
		return err
	}
	peers = clu.Size()
	fmt.Printf("connected to %d %s via %s\n", peers, daemons, seed)

	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = dfmax
	cfg.Window = 10
	cfg.ReplicationFactor = replicas
	// A query-only view (global vocabulary and statistics, no peers):
	// it renders each query's terms for hdk.search.
	eng, err := core.NewEngine(clu, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return err
	}
	// Streamed coordinator-side build: ship each daemon its shard over
	// hdk.ingest (document j to ring member j%n), then let the seed
	// daemon coordinate the round-synchronous build. The shell holds one
	// document at a time and runs zero rounds.
	fmt.Printf("streaming %d docs to %d %s (DFmax=%d, w=%d, smax=%d, R=%d, %d-byte chunks)...\n",
		col.M(), peers, daemons, cfg.DFMax, cfg.Window, cfg.SMax, cfg.ReplicationFactor, clu.ChunkTarget())
	for i, m := range clu.Members() {
		st, err := clu.Ingest(m.Addr(), cluster.ShardSource(col, cfg, 1, i, peers))
		if err != nil {
			return err
		}
		fmt.Printf("  %s: %d docs in %d chunks (%d shipped, %d already held)\n",
			m.Addr(), st.Docs, st.Chunks, st.ChunksSent, st.ChunksSkipped)
	}
	lastRound := -1
	if err := clu.BuildRemote(seed, func(info cluster.Info) {
		if info.BuildRound > 0 && info.BuildRound != lastRound {
			lastRound = info.BuildRound
			fmt.Printf("  build round %d/%d\n", info.BuildRound, cfg.SMax)
		}
	}); err != nil {
		return err
	}
	printIndexReady(clu, daemons)
	fmt.Printf("sample vocabulary: %s\n", strings.Join(col.Vocab[40:52], " "))
	fmt.Println(`type a query, ":stats", ":doc N" or ":quit"`)

	termID := make(map[string]corpus.TermID, len(col.Vocab))
	for i, s := range col.Vocab {
		termID[s] = corpus.TermID(i)
	}

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
			printStats(clu, tr)
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
		// One RPC: the seed daemon coordinates the whole traversal and
		// may answer straight from its result cache.
		var res *core.SearchResult
		var span *telemetry.Trace
		cost := ""
		req := core.SearchRequest{Terms: eng.QueryTerms(q), K: topk}
		if trace {
			res, span, err = clu.SearchTraceVia(seed, req)
			if err == nil && span == nil {
				cost = " [coordinator cache]"
			}
		} else {
			var cached bool
			res, cached, err = clu.SearchVia(seed, req)
			if cached {
				cost = " [coordinator cache]"
			}
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

// boot returns the transport the shell talks over, the seed daemon it
// dials and coordinates through, and what to call the daemons: the
// hdknode process behind -connect over TCP or, without -connect,
// peer-0 of peers freshly started in-process daemons (peer-0, peer-1,
// ... on one in-process transport, each joined through peer-0).
func boot(connect string, peers, replicas int) (transport.Transport, string, string, error) {
	if connect != "" {
		return transport.NewTCP(), connect, "hdknode processes", nil
	}
	tr := transport.NewInProc()
	for i := 0; i < peers; i++ {
		s, err := cluster.NewServer(tr, fmt.Sprintf("peer-%d", i), replicas)
		if err == nil && i > 0 {
			err = s.Join("peer-0")
		}
		if err != nil {
			tr.Close()
			return nil, "", "", err
		}
	}
	return tr, "peer-0", "in-process daemons", nil
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

// printIndexReady reports the resident index size, summed over the
// daemons' stores; daemons names what was counted.
func printIndexReady(clu *cluster.Client, daemons string) {
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
	fmt.Printf("index ready: %d keys, %d postings stored across %d %s\n", keys, posts, len(nodeStats), daemons)
}

// printStats reports the index and the counted work, summed over the
// daemons' stores and registries (every client's queries, cluster-wide,
// over cluster.metrics).
func printStats(clu *cluster.Client, tr transport.Transport) {
	var inserted, dials, reuses, stale, probes, rpcs, rounds, failovers uint64
	for _, m := range clu.Members() {
		snap, err := cluster.FetchMetrics(tr, m.Addr())
		if err != nil {
			fmt.Printf("metrics of %s unavailable: %v\n", m.Addr(), err)
			continue
		}
		inserted += snap.CounterSum("hdk_build_inserted_postings_total")
		dials += snap.CounterSum("hdk_transport_dials_total")
		reuses += snap.CounterSum("hdk_transport_pool_reuses_total")
		stale += snap.CounterSum("hdk_transport_stale_retries_total")
		probes += snap.CounterSum("hdk_query_probes_total")
		rpcs += snap.CounterSum("hdk_query_fetch_rpcs_total")
		failovers += snap.CounterSum("hdk_query_failovers_total")
		for size := 1; size <= core.MaxKeySize; size++ {
			hv, _ := snap.Histogram("hdk_query_level_nanoseconds", telemetry.L("level", strconv.Itoa(size)))
			rounds += hv.Count
		}
	}
	nodeStats, err := clu.StoreStats()
	if err != nil {
		fmt.Printf("store stats unavailable: %v\n", err)
	} else {
		var sum core.StoreStats
		for _, ns := range nodeStats {
			for size := range sum.KeysBySize {
				sum.KeysBySize[size] += ns.Stats.KeysBySize[size]
				sum.PostsBySize[size] += ns.Stats.PostsBySize[size]
			}
		}
		fmt.Printf("keys by size: 1:%d 2:%d 3:%d | stored postings %d | inserted %d\n",
			sum.KeysBySize[1], sum.KeysBySize[2], sum.KeysBySize[3], sum.PostsTotal(), inserted)
		for _, ns := range nodeStats {
			fmt.Printf("  %s: %d keys, %d postings\n", ns.Addr, ns.Stats.KeysTotal(), ns.Stats.PostsTotal())
		}
	}
	fmt.Printf("daemon pools: %d dials, %d reuses, %d stale retries\n", dials, reuses, stale)
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
