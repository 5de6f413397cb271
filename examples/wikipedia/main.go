// Wikipedia-style evaluation: the paper's Section 5 experiment end to
// end on a generated collection — growing peer network, distributed
// single-term baseline vs the HDK engine at two DFmax values, centralized
// BM25 reference — printing every table and figure series.
//
// Pass -scale medium for a longer, closer-to-paper run.
//
// Pass -remote to exercise the streamed coordinator-side build instead:
// it boots -nodes hdknode daemons in-process on real TCP sockets, then
// acts as a THIN client — the corpus (-docs documents, 100k by default)
// is never resident; each daemon's shard is regenerated from a
// deterministic corpus.DocStream one document at a time and shipped
// over the chunked, resumable hdk.ingest session, after which one
// daemon coordinates the whole round-synchronous index build node-side
// (hdk.build). The client's footprint is the vocabulary plus one chunk,
// independent of -docs.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/experiments"
	"repro/internal/rank"
	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

func main() {
	scaleName := flag.String("scale", "small", "small or medium (sweep mode)")
	remote := flag.Bool("remote", false, "streamed coordinator-side build against in-process TCP daemons instead of the sweep")
	docs := flag.Int("docs", 100000, "with -remote: corpus size streamed to the cluster")
	nodes := flag.Int("nodes", 5, "with -remote: hdknode daemons to boot")
	chunkBytes := flag.Int("build-chunk-bytes", 0, "with -remote: hdk.ingest chunk payload target in bytes (0 = cluster default)")
	flag.Parse()

	if *remote {
		if err := remoteBuild(*docs, *nodes, *chunkBytes); err != nil {
			log.Fatal(err)
		}
		return
	}
	scale := experiments.SmallScale()
	if *scaleName == "medium" {
		scale = experiments.MediumScale()
	}
	res, err := experiments.Run(scale, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, format+"\n", args...)
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, t := range experiments.AllTables(res) {
		t.Fprint(os.Stdout)
	}
	res.WriteSummary(os.Stdout)
}

// remoteBuild boots a real-TCP daemon cluster and indexes the corpus
// through the thin-client ingest API. Nothing in this function ever
// holds the collection: the global statistics come from one streaming
// StreamStats pass, and every shard upload re-generates the document
// stream and skips the documents other daemons own.
func remoteBuild(docs, nodes, chunkBytes int) error {
	if nodes < 1 {
		return fmt.Errorf("-nodes must be >= 1")
	}
	gp := corpus.DefaultGenParams(docs)

	fmt.Fprintf(os.Stderr, "streaming global statistics pass over %d docs...\n", docs)
	freqs, numDocs, sampleSize, err := corpus.StreamStats(gp)
	if err != nil {
		return err
	}
	stream, err := corpus.NewDocStream(gp)
	if err != nil {
		return err
	}
	vocab := stream.Vocab()
	cfg := core.DefaultConfig(rank.CollectionStats{
		NumDocs:   numDocs,
		AvgDocLen: float64(sampleSize) / float64(numDocs),
	})

	// The daemon fleet: each on its own TCP transport and ephemeral
	// port, joined through the first — exactly what scripts/cluster-up.sh
	// boots as separate OS processes.
	fmt.Fprintf(os.Stderr, "booting %d daemons on TCP...\n", nodes)
	servers := make([]*cluster.Server, nodes)
	for i := range servers {
		tr := transport.NewTCP()
		defer tr.Close()
		s, err := cluster.NewServer(tr, "127.0.0.1:0", cfg.ReplicationFactor)
		if err != nil {
			return err
		}
		defer s.Shutdown()
		if i > 0 {
			if err := s.Join(servers[0].Addr()); err != nil {
				return err
			}
		}
		servers[i] = s
	}

	tr := transport.NewTCP()
	defer tr.Close()
	c, err := cluster.Dial(cluster.Options{Transport: tr, Seed: servers[0].Addr(), ChunkBytes: chunkBytes})
	if err != nil {
		return err
	}
	members := c.Members()
	n := len(members)

	// Per-shard streamed uploads: ring member i owns documents j with
	// j%n == i, so its iterator regenerates the full deterministic
	// stream and yields only those.
	ingestStart := time.Now()
	var chunks int
	var bytes uint64
	for i, m := range members {
		ds, err := corpus.NewDocStream(gp)
		if err != nil {
			return err
		}
		idx, pos := i, 0
		st, err := c.Ingest(m.Addr(), cluster.IngestSource{
			Session:   1,
			Config:    cfg,
			Vocab:     vocab,
			TermFreqs: freqs,
			TotalDocs: numDocs,
			ShardDocs: (numDocs - i + n - 1) / n,
			Docs: func() (corpus.Document, bool) {
				for {
					d, ok := ds.Next()
					if !ok {
						return corpus.Document{}, false
					}
					mine := pos%n == idx
					pos++
					if mine {
						return d, true
					}
				}
			},
		})
		if err != nil {
			return err
		}
		chunks += st.Chunks
		bytes += st.Bytes
		fmt.Fprintf(os.Stderr, "  %s: %d docs in %d chunks (%d bytes)\n", m.Addr(), st.Docs, st.Chunks, st.Bytes)
	}
	ingestNanos := time.Since(ingestStart).Nanoseconds()

	fmt.Fprintf(os.Stderr, "daemon-coordinated build via %s...\n", members[0].Addr())
	buildStart := time.Now()
	lastRound := -1
	if err := c.BuildRemote(members[0].Addr(), func(info cluster.Info) {
		if info.BuildRound > 0 && info.BuildRound != lastRound {
			lastRound = info.BuildRound
			fmt.Fprintf(os.Stderr, "  round %d/%d\n", info.BuildRound, cfg.SMax)
		}
	}); err != nil {
		return err
	}
	buildNanos := time.Since(buildStart).Nanoseconds()

	nodeStats, err := c.StoreStats()
	if err != nil {
		return err
	}
	posts, keys := 0, 0
	for _, ns := range nodeStats {
		posts += ns.Stats.PostsTotal()
		keys += ns.Stats.KeysTotal()
	}
	fmt.Printf("Streamed remote build — %d docs over %d daemons (DFmax=%d, w=%d, smax=%d)\n",
		numDocs, n, cfg.DFMax, cfg.Window, cfg.SMax)
	fmt.Printf("ingest: %d chunks, %d payload bytes in %.1fs | build: %.1fs (%.0f docs/sec end to end)\n",
		chunks, bytes, float64(ingestNanos)/1e9, float64(buildNanos)/1e9,
		float64(numDocs)/(float64(ingestNanos+buildNanos)/1e9))
	fmt.Printf("index: %d keys, %d postings across %d daemons\n", keys, posts, len(nodeStats))

	// A few sample queries through the node-side coordinators, built
	// from discriminative (df <= DFMax) vocabulary terms — the client
	// still holds no corpus, just the streamed statistics.
	eng, err := core.NewEngine(c, cfg, vocab, freqs)
	if err != nil {
		return err
	}
	var rare []corpus.TermID
	for t, f := range freqs {
		if f >= 3 && f <= cfg.DFMax/2 {
			rare = append(rare, corpus.TermID(t))
		}
	}
	sort.Slice(rare, func(a, b int) bool { return freqs[rare[a]] > freqs[rare[b]] })
	for qi := 0; qi+1 < len(rare) && qi < 6; qi += 2 {
		q := corpus.Query{Terms: []corpus.TermID{rare[qi], rare[qi+1]}}
		res, cached, err := c.SearchVia(members[qi%n].Addr(), core.SearchRequest{Terms: eng.QueryTerms(q), K: 5})
		if err != nil {
			return err
		}
		cost := ""
		if cached {
			cost = " [cached]"
		}
		fmt.Printf("query %q + %q: %d results, probed %d keys, fetched %d postings%s\n",
			vocab[rare[qi]], vocab[rare[qi+1]], len(res.Results), res.ProbedKeys, res.FetchedPosts, cost)
	}
	return nil
}
