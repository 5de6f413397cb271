package baseline

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
)

// Service names registered on overlay nodes by the ST engine.
const (
	svcSTInsert = "st.insert"
	svcSTFetch  = "st.fetch"
)

// GlobalStats carries the collection-wide statistics distributed ranking
// needs. In the prototype lineage these are gossiped through the overlay
// (as in MINERVA/PlanetP); here they are computed once and handed to every
// peer, which is what a converged gossip would deliver.
type GlobalStats struct {
	NumDocs   int
	AvgDocLen float64
}

// RankStats converts to the rank package's statistics type.
func (g GlobalStats) RankStats() rank.CollectionStats {
	return rank.CollectionStats{NumDocs: g.NumDocs, AvgDocLen: g.AvgDocLen}
}

// Traffic aggregates the posting counters the paper reports. All fields
// are cumulative.
type Traffic struct {
	InsertedPostings atomic.Uint64 // postings shipped into the global index
	StoredPostings   atomic.Uint64 // postings resident in the global index
	FetchedPostings  atomic.Uint64 // postings shipped to querying peers
}

// Snapshot returns a plain-value copy.
func (t *Traffic) Snapshot() TrafficSnapshot {
	return TrafficSnapshot{
		InsertedPostings: t.InsertedPostings.Load(),
		StoredPostings:   t.StoredPostings.Load(),
		FetchedPostings:  t.FetchedPostings.Load(),
	}
}

// TrafficSnapshot is a point-in-time copy of Traffic.
type TrafficSnapshot struct {
	InsertedPostings uint64
	StoredPostings   uint64
	FetchedPostings  uint64
}

// stStore is the index fraction one overlay node is responsible for.
type stStore struct {
	mu    sync.Mutex
	lists map[string]postings.List // term -> full posting list (Score = tf component)
}

// DistributedST is the naïve single-term engine over the structured
// overlay: each term's full posting list lives on the DHT node responsible
// for hash(term); queries fetch the full posting lists of every query
// term. Its retrieval traffic grows with the collection size — the
// behaviour the HDK design eliminates.
type DistributedST struct {
	net     overlay.Fabric
	params  rank.BM25Params
	global  GlobalStats
	vocab   []string
	stores  map[overlay.ID]*stStore
	Traffic Traffic
}

// NewDistributedST wires the engine onto an existing overlay network.
// vocab maps corpus term ids to key strings.
func NewDistributedST(net overlay.Fabric, vocab []string, global GlobalStats, params rank.BM25Params) *DistributedST {
	e := &DistributedST{
		net:    net,
		params: params,
		global: global,
		vocab:  vocab,
		stores: make(map[overlay.ID]*stStore),
	}
	for _, node := range net.Members() {
		store := &stStore{lists: make(map[string]postings.List)}
		e.stores[node.ID()] = store
		node.Handle(svcSTInsert, e.makeInsertHandler(store))
		node.Handle(svcSTFetch, e.makeFetchHandler(store))
	}
	return e
}

func (e *DistributedST) makeInsertHandler(store *stStore) func([]byte) ([]byte, error) {
	return func(req []byte) ([]byte, error) {
		batch, err := postings.DecodeKeyedBatch(req)
		if err != nil {
			return nil, err
		}
		store.mu.Lock()
		defer store.mu.Unlock()
		for _, m := range batch {
			old, ok := store.lists[m.Key]
			merged := postings.Union(old, m.List)
			key := m.Key
			if !ok {
				// The map retains the key; clone it so a key substringing
				// the decoded batch does not pin the request buffer.
				key = strings.Clone(m.Key)
			}
			store.lists[key] = merged
			e.Traffic.StoredPostings.Add(uint64(len(merged) - len(old)))
		}
		return nil, nil
	}
}

func (e *DistributedST) makeFetchHandler(store *stStore) func([]byte) ([]byte, error) {
	return func(req []byte) ([]byte, error) {
		key := string(req)
		store.mu.Lock()
		list := store.lists[key]
		store.mu.Unlock()
		// df of a single term equals its full posting list length.
		resp := postings.EncodeKeyed(nil, postings.KeyedMessage{Key: key, Aux: uint64(len(list)), List: list})
		return resp, nil
	}
}

// IndexPeer indexes one peer's local collection: computes per-term local
// posting lists carrying the BM25 tf-component as score, routes each term
// to its DHT owner and inserts the list. Returns the number of postings
// this peer inserted.
func (e *DistributedST) IndexPeer(local *corpus.Collection, from overlay.Member) (uint64, error) {
	byTerm := make(map[corpus.TermID]postings.List)
	tf := make(map[corpus.TermID]int)
	stats := e.global.RankStats()
	for i := range local.Docs {
		d := &local.Docs[i]
		clear(tf)
		for _, t := range d.Terms {
			tf[t]++
		}
		for t, f := range tf {
			// Score carries the df-independent part of BM25; the index
			// node applies the idf factor at fetch time when the global
			// df is known.
			partial := e.params.Score(stats, f, 1, len(d.Terms)) / stats.IDF(1)
			byTerm[t] = append(byTerm[t], postings.Posting{Doc: d.ID, Score: float32(partial)})
		}
	}
	// Deterministic insertion order.
	terms := make([]corpus.TermID, 0, len(byTerm))
	for t := range byTerm {
		terms = append(terms, t)
	}
	sort.Slice(terms, func(i, j int) bool { return terms[i] < terms[j] })

	inserted := uint64(0)
	for _, t := range terms {
		list := byTerm[t]
		sort.Slice(list, func(i, j int) bool { return list[i].Doc < list[j].Doc })
		key := e.vocab[t]
		owner, _, err := e.net.Route(from, key)
		if err != nil {
			return inserted, fmt.Errorf("baseline: route %q: %w", key, err)
		}
		payload := postings.EncodeKeyedBatch(nil, []postings.KeyedMessage{{Key: key, List: list}})
		if _, err := e.net.CallService(owner.Addr(), svcSTInsert, payload); err != nil {
			return inserted, fmt.Errorf("baseline: insert %q: %w", key, err)
		}
		inserted += uint64(len(list))
	}
	e.Traffic.InsertedPostings.Add(inserted)
	return inserted, nil
}

// Search fetches the full posting list of every query term from the
// global index, applies the idf factor, unions and ranks. It returns the
// top-k results and the number of postings transferred (the Figure 6
// quantity).
func (e *DistributedST) Search(q corpus.Query, from overlay.Member, k int) ([]rank.Result, uint64, error) {
	stats := e.global.RankStats()
	var acc postings.List
	fetched := uint64(0)
	for _, t := range q.Terms {
		key := e.vocab[t]
		owner, _, err := e.net.Route(from, key)
		if err != nil {
			return nil, fetched, err
		}
		raw, err := e.net.CallService(owner.Addr(), svcSTFetch, []byte(key))
		if err != nil {
			return nil, fetched, err
		}
		m, _, err := postings.DecodeKeyed(raw)
		if err != nil {
			return nil, fetched, err
		}
		fetched += uint64(len(m.List))
		idf := float32(stats.IDF(int(m.Aux)))
		scored := make(postings.List, len(m.List))
		for i, p := range m.List {
			scored[i] = postings.Posting{Doc: p.Doc, Score: p.Score * idf}
		}
		acc = postings.Union(acc, scored)
	}
	e.Traffic.FetchedPostings.Add(fetched)
	return rank.TopKByScore(acc, k), fetched, nil
}

// StoredPostingsPerNode reports how many postings each overlay node holds,
// keyed by node id — the per-peer index size of Figure 3.
func (e *DistributedST) StoredPostingsPerNode() map[overlay.ID]int {
	out := make(map[overlay.ID]int, len(e.stores))
	for id, s := range e.stores {
		s.mu.Lock()
		total := 0
		for _, l := range s.lists {
			total += len(l)
		}
		s.mu.Unlock()
		out[id] = total
	}
	return out
}
