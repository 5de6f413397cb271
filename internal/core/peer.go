package core

import (
	"fmt"
	"slices"
	"strings"
	"sync"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
)

// Peer is one participant: it stores a fraction of the global document
// collection, computes the keys derivable from it, inserts them into the
// global index, and (as an overlay node) hosts a fraction of that index.
type Peer struct {
	eng  *Engine
	node overlay.Member
	docs []docState

	mu sync.Mutex
	// nd holds the keys this peer contributed that the global index
	// classified non-discriminative — exactly the knowledge the paper says
	// local HDK computation needs ("the global document frequencies of the
	// local size 1 and size (s-1) NDKs").
	nd keySets
	// fresh holds keys that turned non-discriminative since this peer's
	// last completed generation round of the next size. Freshly-ND keys
	// drive the incremental-maintenance expansion: their supersets were
	// never generated, so they need postings from ALL local documents,
	// while everything else only needs the new documents.
	fresh keySets
	// indexedDocs is the watermark: p.docs[:indexedDocs] are covered by
	// the built index; the tail arrived via AddDocuments.
	indexedDocs int
	// lastCands/lastPosts are the previous build round's candidate and
	// posting counts: the next round sizes its accumulator from them.
	lastCands, lastPosts int
}

// termBits is a dense set of term ids over the collection vocabulary.
type termBits []uint64

func (b termBits) has(t corpus.TermID) bool { return b[t>>6]&(1<<(t&63)) != 0 }
func (b termBits) set(t corpus.TermID)      { b[t>>6] |= 1 << (t & 63) }

// keySets holds one set of keys per key size. Size-1 membership is tested
// at every window position of every document, so it is a bitset over the
// vocabulary; larger keys are sparse in their term space and stay maps.
type keySets struct {
	terms termBits
	keys  [MaxKeySize + 1]map[Key]bool // [s] for s >= 2
}

func newKeySets(vocab int) keySets {
	ks := keySets{terms: make(termBits, (vocab+63)/64)}
	for s := 2; s <= MaxKeySize; s++ {
		ks.keys[s] = make(map[Key]bool)
	}
	return ks
}

func (ks *keySets) add(k Key) {
	if k.Size() == 1 {
		ks.terms.set(k.Term(0))
		return
	}
	ks.keys[k.Size()][k] = true
}

// reset empties the set of the given size by REPLACING it: a generation
// pass that captured the old set keeps reading a stable snapshot.
func (ks *keySets) reset(size int) {
	switch {
	case size == 1:
		ks.terms = make(termBits, len(ks.terms))
	case size >= 2:
		ks.keys[size] = make(map[Key]bool)
	}
}

// docState is a pre-processed local document: the term sequence with
// globally very frequent terms removed (the collection-adaptive stop list
// of Section 4.1) plus, per distinct term, the partial score its postings
// carry.
type docState struct {
	id    corpus.DocID
	terms []corpus.TermID
	uniq  []corpus.TermID // distinct members of terms, ascending
	// part[i] is the df-independent BM25 factor of uniq[i] in this
	// document: the partial score a posting carries into the global index
	// (the index node applies idf once the global df is known).
	part []float32
}

// Node returns the peer's overlay node.
func (p *Peer) Node() overlay.Member { return p.node }

// newPeer pre-processes the peer's local collection.
func newPeer(eng *Engine, node overlay.Member, local *corpus.Collection) *Peer {
	p := &Peer{eng: eng, node: node, nd: newKeySets(len(eng.vocab)), fresh: newKeySets(len(eng.vocab))}
	p.appendDocs(local)
	node.Handle(SvcNotify, p.ServeNotify)
	return p
}

// appendDocs pre-processes documents into the peer's local store.
func (p *Peer) appendDocs(local *corpus.Collection) {
	cfg := &p.eng.cfg
	idf1 := cfg.Stats.IDF(1)
	var sorted []corpus.TermID // scratch, reused across documents
	for i := range local.Docs {
		d := &local.Docs[i]
		ds := docState{id: d.ID, terms: make([]corpus.TermID, 0, len(d.Terms))}
		for _, t := range d.Terms {
			if !p.eng.vf[t] {
				ds.terms = append(ds.terms, t)
			}
		}
		sorted = append(sorted[:0], ds.terms...)
		slices.Sort(sorted)
		distinct := 0
		for j, t := range sorted {
			if j == 0 || t != sorted[j-1] {
				distinct++
			}
		}
		ds.uniq = make([]corpus.TermID, 0, distinct)
		ds.part = make([]float32, 0, distinct)
		for j := 0; j < len(sorted); {
			tf := 1
			for j+tf < len(sorted) && sorted[j+tf] == sorted[j] {
				tf++
			}
			// BM25 normalizes by the original document length.
			full := cfg.BM25.Score(cfg.Stats, tf, 1, len(d.Terms))
			ds.uniq = append(ds.uniq, sorted[j])
			ds.part = append(ds.part, float32(full/idf1))
			j += tf
		}
		p.docs = append(p.docs, ds)
	}
}

// AddDocuments stages new local documents for the next UpdateIndex call.
// Document ids must be globally unique and larger than every id the peer
// already holds (posting lists are ordered by doc id).
func (p *Peer) AddDocuments(local *corpus.Collection) error {
	var maxID corpus.DocID
	if len(p.docs) > 0 {
		maxID = p.docs[len(p.docs)-1].id
	}
	for i := range local.Docs {
		if (len(p.docs) > 0 || i > 0) && local.Docs[i].ID <= maxID {
			return fmt.Errorf("core: new document id %d not above preceding maximum %d",
				local.Docs[i].ID, maxID)
		}
		maxID = local.Docs[i].ID
	}
	p.appendDocs(local)
	return nil
}

// ServeNotify handles one SvcNotify delivery: it records keys the global
// index reclassified as non-discriminative; they drive next round's
// expansion. newPeer registers it on the peer's own overlay member, which
// covers fabrics that dispatch member-local services; the cluster daemon
// additionally registers it on its RPC dispatch so an external build
// coordinator reaches the peer's expansion state over the wire.
func (p *Peer) ServeNotify(req []byte) ([]byte, error) {
	batch, err := postings.DecodeKeyedBatch(req)
	if err != nil {
		return nil, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range batch {
		k, err := p.eng.parseKey(m.Key)
		if err != nil {
			return nil, err
		}
		p.nd.add(k)
		p.fresh.add(k)
	}
	return nil, nil
}

// consumeFresh clears the freshness set of the given size after a
// generation round has expanded it.
func (p *Peer) consumeFresh(size int) {
	p.mu.Lock()
	p.fresh.reset(size)
	p.mu.Unlock()
}

func (p *Peer) advanceWatermark() { p.indexedDocs = len(p.docs) }

// keyScore is the partial relevance of a key within a document: the sum
// of its member terms' partial BM25 scores, in ascending term order.
func keyScore(ds *docState, k Key) float32 {
	var s float32
	rest, part := ds.uniq, ds.part
	for i := 0; i < k.Size(); i++ {
		j, _ := slices.BinarySearch(rest, k.Term(i))
		s += part[j]
		rest, part = rest[j+1:], part[j+1:]
	}
	return s
}

// candSet accumulates a generation pass's candidate keys and their local
// postings. Documents are scanned in ascending id order, so a key's
// postings arrive sorted and per-doc dedup is a single comparison; they
// are appended to ONE flat record log and scattered into per-key lists
// only once the pass is over and every list length is known — a pass
// allocates a handful of large blocks instead of one growing list per key.
type candSet struct {
	index map[Key]int32 // key -> position in cands
	cands []candidate
	log   []candPosting
	// sealed counts the candidates created by earlier passes into this
	// set: the incremental update's two passes partition the candidate
	// space, so a later pass reaching one of them is a bug.
	sealed int
}

type candidate struct {
	key     Key
	lastDoc corpus.DocID // +1; 0 means none yet
	n       int32        // postings logged so far
}

type candPosting struct {
	cand int32
	postings.Posting
}

// newCandSet returns an accumulator pre-sized for the expected number of
// candidates and postings.
func newCandSet(cands, posts int) *candSet {
	return &candSet{
		index: make(map[Key]int32, cands),
		cands: make([]candidate, 0, cands),
		log:   make([]candPosting, 0, posts),
	}
}

// add records (key, doc) once per document.
func (c *candSet) add(k Key, ds *docState) {
	i, ok := c.index[k]
	if !ok {
		i = int32(len(c.cands))
		c.index[k] = i
		c.cands = append(c.cands, candidate{key: k})
	} else if int(i) < c.sealed {
		panic("core: incremental generation passes overlapped")
	}
	cand := &c.cands[i]
	if cand.lastDoc == ds.id+1 {
		return
	}
	cand.lastDoc = ds.id + 1
	cand.n++
	c.log = append(c.log, candPosting{cand: i, Posting: postings.Posting{Doc: ds.id, Score: keyScore(ds, k)}})
}

// candList is one candidate key with its complete local posting list.
type candList struct {
	key  Key
	list postings.List
}

// lists scatters the record log into per-key posting lists (slices of one
// shared block) and returns them in ascending key order. The set is spent
// afterwards.
func (c *candSet) lists() []candList {
	block := make(postings.List, len(c.log))
	out := make([]candList, len(c.cands))
	off := 0
	for i, cand := range c.cands {
		end := off + int(cand.n)
		out[i] = candList{key: cand.key, list: block[off:off:end]}
		off = end
	}
	for _, rec := range c.log {
		l := &out[rec.cand].list
		*l = append(*l, rec.Posting)
	}
	c.index, c.cands, c.log = nil, nil, nil
	slices.SortFunc(out, func(a, b candList) int { return keyCompare(a.key, b.key) })
	return out
}

// candFilter selects candidates by freshness during generation.
// candAll keeps everything (the initial build). The incremental update
// partitions work between candNotFresh over the new documents (keys that
// already exist in the index only need the new postings) and
// candFreshOnly over all documents (keys whose generation was unlocked
// by a freshly non-discriminative sub-key were never inserted and need
// their full local posting lists).
type candFilter int

const (
	candAll candFilter = iota
	candNotFresh
	candFreshOnly
)

// rejects reports whether the filter drops a candidate of this freshness.
func (f candFilter) rejects(fresh bool) bool {
	return f != candAll && fresh != (f == candFreshOnly)
}

// generate computes this peer's local candidate keys of size s with their
// local posting lists over all documents (the initial build). Size 1
// enumerates distinct document terms; larger sizes expand known-ND keys
// with co-window terms under redundancy filtering (every immediate
// sub-key must be ND).
func (p *Peer) generate(s int) *candSet {
	cands := newCandSet(p.lastCands, p.lastPosts)
	p.generateInto(cands, s, p.docs, candAll)
	p.lastCands, p.lastPosts = len(cands.cands), len(cands.log)
	return cands
}

// generateUpdate computes the incremental-maintenance candidates of size
// s: new postings for existing keys from the new documents, plus full
// postings for keys unlocked by freshly-ND sub-keys from all documents.
// The two passes partition the candidate space.
func (p *Peer) generateUpdate(s int) *candSet {
	newDocs := p.docs[p.indexedDocs:]
	cands := newCandSet(0, 0)
	if s == 1 {
		p.generateInto(cands, 1, newDocs, candAll)
	} else {
		p.generateInto(cands, s, newDocs, candNotFresh)
		cands.sealed = len(cands.cands)
		p.generateInto(cands, s, p.docs, candFreshOnly)
	}
	return cands
}

func (p *Peer) generateInto(cands *candSet, s int, docs []docState, filter candFilter) {
	switch s {
	case 1:
		for i := range docs {
			ds := &docs[i]
			for _, t := range ds.uniq {
				cands.add(NewKey(t), ds)
			}
		}
	case 2:
		p.generatePairs(cands, docs, filter)
	default:
		p.generateExtensions(cands, s, docs, filter)
	}
}

// generatePairs builds size-2 candidates: pairs of ND single terms
// co-occurring within a window. Each in-window pair is visited exactly
// once, when its right member enters the sliding window (the counting
// device of the paper's Theorem 3 proof). Under the redundancy-filtering
// ablation one ND member suffices. A pair is "fresh" when either member
// turned ND since the last round — exactly the pairs that do not exist
// in the index yet.
func (p *Peer) generatePairs(cands *candSet, docs []docState, filter candFilter) {
	w := p.eng.cfg.Window
	oneSuffices := p.eng.cfg.DisableRedundancyFiltering
	p.mu.Lock()
	nd1, fresh1 := p.nd.terms, p.fresh.terms
	p.mu.Unlock()
	for i := range docs {
		ds := &docs[i]
		for j, t := range ds.terms {
			tND := nd1.has(t)
			if !tND && !oneSuffices {
				continue
			}
			for _, u := range ds.terms[max(0, j-w+1):j] {
				if u == t || !(nd1.has(u) || tND && oneSuffices) {
					continue
				}
				if filter.rejects(fresh1.has(t) || fresh1.has(u)) {
					continue
				}
				cands.add(NewKey(u, t), ds)
			}
		}
	}
}

// generateExtensions builds size-s candidates (s >= 3) by extending ND
// keys of size s-1 with an ND term in the same window, pruning candidates
// with any discriminative immediate sub-key (Apriori-style: the inductive
// construction guarantees deeper sub-keys are ND). A candidate is
// "fresh" when any immediate sub-key turned ND since the last round.
func (p *Peer) generateExtensions(cands *candSet, s int, docs []docState, filter candFilter) {
	w := p.eng.cfg.Window
	x := extender{
		cands:   cands,
		need:    s - 1,
		filter:  filter,
		noPrune: p.eng.cfg.DisableRedundancyFiltering,
	}
	p.mu.Lock()
	nd1 := p.nd.terms
	x.ndPrev, x.freshPrev = p.nd.keys[s-1], p.fresh.keys[s-1]
	p.mu.Unlock()
	if len(x.ndPrev) == 0 {
		return
	}
	for i := range docs {
		x.ds = &docs[i]
		for j, c := range x.ds.terms {
			if !nd1.has(c) && !x.noPrune {
				continue
			}
			// Distinct candidate co-terms in the lookback window.
			x.lookback = x.lookback[:0]
			for _, u := range x.ds.terms[max(0, j-w+1):j] {
				if u != c && (nd1.has(u) || x.noPrune) && !slices.Contains(x.lookback, u) {
					x.lookback = append(x.lookback, u)
				}
			}
			// Extend every ND (s-1)-key formed inside the lookback by c.
			x.c = c
			x.extend(NewKey(), 0)
		}
	}
}

// extender enumerates, for one window position, the (s-1)-subsets of the
// lookback terms that are ND keys and extends them with the entering term
// c, applying the sub-key prune and the freshness filter. It is a struct
// of loop state rather than a closure so the walk allocates nothing.
type extender struct {
	cands             *candSet
	ds                *docState
	lookback          []corpus.TermID // scratch, reused across positions
	c                 corpus.TermID
	need              int
	ndPrev, freshPrev map[Key]bool
	filter            candFilter
	noPrune           bool
}

func (x *extender) extend(base Key, start int) {
	if base.Size() < x.need {
		for i := start; i < len(x.lookback); i++ {
			x.extend(base.Extend(x.lookback[i]), i+1)
		}
		return
	}
	if !x.ndPrev[base] {
		return
	}
	cand := base.Extend(x.c)
	// Redundancy filtering: every immediate sub-key must be ND (base is
	// known to be), and one that turned ND since the last round makes the
	// candidate fresh. Under the ablation only the base must be ND, and
	// freshness follows the base alone.
	wantFresh, fresh := x.filter != candAll, false
	if x.noPrune {
		fresh = wantFresh && x.freshPrev[base]
	} else {
		for i := 0; i < cand.Size(); i++ {
			sub := cand.Drop(i)
			if sub != base && !x.ndPrev[sub] {
				return
			}
			fresh = fresh || wantFresh && x.freshPrev[sub]
		}
	}
	if x.filter.rejects(fresh) {
		return
	}
	x.cands.add(cand, x.ds)
}

// insertAll resolves each candidate key's DHT owner, groups the
// candidates per owner, and ships one insert RPC per owner carrying every
// (key, posting list) pair that owner is responsible for — the insert-side
// mirror of the batched query fan-out. Under ReplicationFactor R > 1 each
// key's batch entry additionally fans out to the key's R-1 further
// replicas, so a replicated build costs R× the insert postings but no
// extra rounds (replica inserts ride the same one-RPC-per-owner batching).
// It returns the number of postings shipped, counting every replica copy.
func (p *Peer) insertAll(cands *candSet, size int) (uint64, error) {
	lists := cands.lists()
	vocab := p.eng.vocab
	// Resolve owners, batching per owner in sorted-key order.
	// Keys hash uniformly over the members, so each owner's batch is sized
	// for its even share plus slack instead of grown by doubling.
	share := len(lists)*p.eng.replicas()/max(1, p.eng.net.Size()) + len(lists)/8 + 1
	byOwner := make(map[string][]postings.KeyedMessage)
	var addrs []string
	inserted := uint64(0)
	for _, cl := range lists {
		canonical := cl.key.CanonicalString(vocab)
		chain := replicaChain(p.eng.net, p.eng.replicas(), canonical)
		if len(chain) == 0 {
			return 0, fmt.Errorf("core: no owner for key %q: empty overlay", cl.key.DisplayString(vocab))
		}
		for _, addr := range chain {
			batch, ok := byOwner[addr]
			if !ok {
				addrs = append(addrs, addr)
				batch = make([]postings.KeyedMessage, 0, share)
			}
			byOwner[addr] = append(batch, postings.KeyedMessage{Key: canonical, Aux: uint64(size), List: cl.list})
			inserted += uint64(len(cl.list))
		}
	}
	for _, addr := range addrs {
		req := encodeInsertReq(nil, p.node.Addr(), byOwner[addr])
		resp, err := p.eng.net.CallService(addr, SvcInsert, req)
		if err != nil {
			return 0, fmt.Errorf("core: insert batch at %s: %w", addr, err)
		}
		if err := p.applyInsertResponse(resp); err != nil {
			return 0, err
		}
	}
	return inserted, nil
}

// applyInsertResponse records the global classification of keys this
// peer just contributed to that were already classified: NDK statuses
// feed the peer's expansion knowledge. They are not marked fresh — the
// key already exists globally, so only this peer's new documents (the
// ones that produced the insert) can contain its supersets.
func (p *Peer) applyInsertResponse(resp []byte) error {
	if len(resp) == 0 {
		return nil
	}
	batch, err := postings.DecodeKeyedBatch(resp)
	if err != nil {
		return err
	}
	if len(batch) == 0 {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, m := range batch {
		if KeyStatus(m.Aux) != StatusNDK {
			continue
		}
		k, err := p.eng.parseKey(m.Key)
		if err != nil {
			return err
		}
		p.nd.add(k)
	}
	return nil
}

// keyCompare orders keys by their packed term arrays (unused slots hold
// noTerm, so a key sorts after its extensions by smaller terms).
func keyCompare(a, b Key) int { return slices.Compare(a.t[:], b.t[:]) }

// parseKey converts a canonical wire key back to the packed form.
func (e *Engine) parseKey(canonical string) (Key, error) {
	k := NewKey()
	for n, rest, more := 1, canonical, true; more; n++ {
		var term string
		term, rest, more = strings.Cut(rest, keySeparator)
		id, ok := e.termID[term]
		if !ok {
			return Key{}, fmt.Errorf("core: unknown term %q in key", term)
		}
		if n > MaxKeySize {
			return Key{}, fmt.Errorf("core: key of size %d exceeds maximum %d",
				1+strings.Count(canonical, keySeparator), MaxKeySize)
		}
		k.insert(id)
	}
	return k, nil
}
