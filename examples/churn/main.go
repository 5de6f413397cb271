// Churn: the paper's system-growth scenario plus the failure half the
// paper left to P-Grid. Peers join in batches of 4 (4 -> 28, as in
// Section 5), each batch bringing new documents; after every batch the
// collection is re-indexed and per-peer load is printed — with a constant
// number of documents per peer, the per-peer index size stabilizes while
// the collection keeps growing (the scalability argument of Section 4.1).
// Then the network shrinks: a fraction of the peers crash mid-run,
// recall against the intact index is measured (replica failover serves
// the surviving copies), churn repair re-replicates the under-replicated
// keys, and recall is measured again — the internal/replica subsystem
// end-to-end.
package main

import (
	"flag"
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
)

func main() {
	docsPerPeer := flag.Int("docs-per-peer", 100, "documents each joining peer contributes")
	replicas := flag.Int("replicas", 2, "R-way key replication factor")
	killFrac := flag.Float64("kill-frac", 0.25, "fraction of peers crashed after the growth phase")
	short := flag.Bool("short", false, "small fast run (CI smoke): 8 peers, 40 docs each")
	flag.Parse()
	maxPeers := 28
	if *short {
		maxPeers = 8
		*docsPerPeer = 40
	}
	if *killFrac <= 0 || *killFrac >= 1 {
		log.Fatalf("-kill-frac %g outside (0,1)", *killFrac)
	}
	if *replicas < 1 {
		log.Fatalf("-replicas %d must be >= 1", *replicas)
	}
	if err := run(maxPeers, *docsPerPeer, *replicas, *killFrac); err != nil {
		log.Fatal(err)
	}
}

func run(maxPeers, docsPerPeer, replicas int, killFrac float64) error {
	p := corpus.DefaultGenParams(maxPeers * docsPerPeer)
	p.AvgDocLen = 60
	full, err := corpus.Generate(p)
	if err != nil {
		return err
	}

	// --- Growth phase: the paper's batch-join scalability table. -------
	fmt.Printf("growth (R=%d):\n", replicas)
	fmt.Printf("%-7s %-7s %-16s %s\n", "peers", "docs", "stored/peer", "max node load")
	var eng *core.Engine
	var net *overlay.Network
	var col *corpus.Collection
	for peers := 4; peers <= maxPeers; peers += 4 {
		docs := peers * docsPerPeer
		col = full.Slice(0, docs)

		net = overlay.NewNetwork(transport.NewInProc())
		var nodes []*overlay.Node
		for i := 0; i < peers; i++ {
			n, err := net.AddNode(fmt.Sprintf("peer-%d", i))
			if err != nil {
				return err
			}
			nodes = append(nodes, n)
		}
		cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
		cfg.DFMax = 10
		cfg.Window = 8
		cfg.ReplicationFactor = replicas
		eng, err = core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
		if err != nil {
			return err
		}
		for i, part := range col.SplitRoundRobin(peers) {
			if _, err := eng.AddPeer(nodes[i], part); err != nil {
				return err
			}
		}
		if err := eng.BuildIndex(); err != nil {
			return err
		}
		st := eng.Stats()
		maxLoad := 0
		for _, load := range st.PerNode {
			if load > maxLoad {
				maxLoad = load
			}
		}
		fmt.Printf("%-7d %-7d %-16.0f %d\n",
			peers, docs, float64(st.StoredTotal)/float64(peers), maxLoad)
	}
	fmt.Println("\nper-peer load flattens as the network grows with the collection —")
	fmt.Println("the paper's constant-docs-per-peer scalability argument (Section 4.1).")

	// --- Churn phase: crash peers mid-run on the final network. --------
	queries := maxPeers
	if queries > col.M() {
		queries = col.M()
	}
	members := net.Members()
	origin := members[0]
	intact := make([][]rank.Result, queries)
	for i := 0; i < queries; i++ {
		res, err := eng.Search(corpus.Query{Terms: col.Docs[i].Terms[:2]}, origin, 10)
		if err != nil {
			return err
		}
		intact[i] = res.Results
	}

	kills := int(float64(maxPeers) * killFrac)
	if kills < 1 {
		kills = 1
	}
	step := maxPeers / kills
	for k := 0; k < kills; k++ {
		if err := eng.FailNode(members[1+k*step]); err != nil {
			return err
		}
	}
	fmt.Printf("\nchurn: crashed %d of %d peers (index fractions lost, no handoff)\n", kills, maxPeers)

	recall, failovers, err := measure(eng, col, intact, origin, queries)
	if err != nil {
		return err
	}
	audit := eng.AuditReplicas()
	fmt.Printf("before repair: recall@10 %.4f vs intact index, %d failovers, %d/%d keys under-replicated\n",
		recall, failovers, audit.UnderReplicated, audit.Keys)

	rstats, err := eng.RepairReplicas()
	if err != nil {
		return err
	}
	fmt.Printf("repair: %d snapshot copies shipped in %d RPCs (no re-indexing)\n",
		rstats.CopiesSent, rstats.RepairRPCs)

	recall, failovers, err = measure(eng, col, intact, origin, queries)
	if err != nil {
		return err
	}
	audit = eng.AuditReplicas()
	fmt.Printf("after repair:  recall@10 %.4f vs intact index, %d failovers, %d/%d keys under-replicated\n",
		recall, failovers, audit.UnderReplicated, audit.Keys)
	if replicas > 1 {
		if !audit.FullyReplicated() {
			return fmt.Errorf("repair left %d keys under-replicated", audit.UnderReplicated)
		}
		fmt.Printf("\nwith R=%d the surviving replicas answer every query; repair restores\n", replicas)
		fmt.Println("full R-way coverage from resident copies. at R=1 the same crash loses")
		fmt.Println("the dead peers' key fraction outright (try -replicas 1).")
	} else {
		fmt.Println("\nat R=1 the crashed peers' key fraction is gone: nothing holds a copy,")
		fmt.Println("so neither failover nor repair can recover it (try -replicas 2).")
	}
	return nil
}

// measure re-runs the query set and scores recall@10 vs the intact answers.
func measure(eng *core.Engine, col *corpus.Collection, intact [][]rank.Result,
	origin overlay.Member, queries int) (recall float64, failovers int, err error) {
	for i := 0; i < queries; i++ {
		res, err := eng.Search(corpus.Query{Terms: col.Docs[i].Terms[:2]}, origin, 10)
		if err != nil {
			return 0, 0, err
		}
		failovers += res.Failovers
		recall += rank.Overlap(intact[i], res.Results, 10) / 100
	}
	return recall / float64(queries), failovers, nil
}
