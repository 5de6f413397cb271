// Realtext: the full paper pipeline on actual English prose — raw
// documents go through tokenization, the 250-word stop list and the
// Porter stemmer (internal/ingest), are distributed over a ring of
// peers, indexed with highly discriminative keys, and queried with
// free-text queries.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
)

// documents is a small hand-written collection about distributed
// systems, information retrieval and networking, with deliberate topical
// overlap so multi-term keys form.
var documents = []string{
	"Distributed hash tables route every key to a responsible peer in a logarithmic number of hops. Finger tables keep routing state small while lookups stay fast.",
	"An inverted index maps every term of the vocabulary to the posting list of documents containing it. Posting lists for frequent terms grow with the collection.",
	"Peer to peer retrieval engines distribute the inverted index over a structured overlay network so that no single machine stores the whole vocabulary.",
	"Bandwidth consumption during retrieval is dominated by shipping posting lists between peers. Bounding the posting list length bounds the retrieval traffic.",
	"Highly discriminative keys are term sets appearing in few documents. Indexing with discriminative keys keeps every posting list short by construction.",
	"The BM25 relevance scheme weighs term frequency against document length and penalizes terms that occur in many documents of the collection.",
	"Bloom filters compress set membership so two peers can intersect posting lists without shipping them. False positives require a verification round.",
	"Web search engines answer multi term queries by ranking the documents that contain the query terms and returning the top twenty results to the user.",
	"A structured overlay network assigns every peer a region of the key space. When peers join or leave, the regions are rebalanced and index entries move.",
	"Caching posting lists at querying peers eliminates repeated network traffic for popular queries, at the cost of invalidation when the index changes.",
	"Proximity filtering keeps only term sets whose members occur close together in a document window, because nearby words co-occur in real user queries.",
	"The scalability of a retrieval engine is measured by how indexing and retrieval traffic grow when documents and peers are added to the network.",
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	// 1. Ingest raw text through the full pipeline.
	builder := ingest.NewBuilder()
	for _, text := range documents {
		builder.Add(text)
	}
	col := builder.Build()
	fmt.Println(builder.Stats())

	// 2. A ring of 4 peers.
	net := overlay.NewNetwork(transport.NewInProc())
	for i := 0; i < 4; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			return err
		}
	}
	members := net.Members()

	// 3. HDK engine with a tiny DFmax so multi-term keys appear even on
	// twelve documents.
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = 2
	cfg.Window = 12
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		return err
	}
	for i, part := range col.SplitRoundRobin(len(members)) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			return err
		}
	}
	if err := eng.BuildIndex(); err != nil {
		return err
	}
	st := eng.Stats()
	fmt.Printf("index: %d keys (%d singles, %d pairs, %d triples)\n\n",
		st.KeysTotal, st.KeysBySize[1], st.KeysBySize[2], st.KeysBySize[3])

	// 4. Free-text queries through the same pipeline.
	for _, text := range []string{
		"posting list traffic",
		"discriminative keys",
		"overlay network peers join",
		"bloom filter intersection",
	} {
		q, unknown := builder.ParseQuery(text)
		if len(unknown) > 0 {
			fmt.Printf("query %q: unknown terms %v\n", text, unknown)
		}
		res, err := eng.Search(q, members[0], 3)
		if err != nil {
			return err
		}
		fmt.Printf("query %q -> %d keys probed, %d postings fetched\n",
			text, res.ProbedKeys, res.FetchedPosts)
		for i, r := range res.Results {
			doc := documents[r.Doc]
			if len(doc) > 70 {
				doc = doc[:70] + "..."
			}
			fmt.Printf("  %d. [%.2f] %s\n", i+1, r.Score, doc)
		}
	}
	return nil
}
