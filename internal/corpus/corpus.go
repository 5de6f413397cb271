// Package corpus provides the document-collection substrate for the
// reproduction: a deterministic synthetic generator that plays the role of
// the paper's Wikipedia subset (653,546 articles, ~225 words each, Zipf
// skew ~1.5), plus a query-log generator standing in for the 2004
// Wikipedia query log (3,000 queries, 2-8 terms, average 3.02).
//
// Every quantity the paper measures — posting-list lengths, key document
// frequencies, index sizes, retrieval traffic — is a function of the
// rank-frequency distribution and of term co-occurrence locality. The
// generator controls both explicitly (global Zipf sampling + topical
// mixtures), so the measured curves keep the paper's shape even though the
// underlying text is synthetic.
package corpus

import (
	"fmt"
	"math/rand"
	"strings"

	"repro/internal/zipfmodel"
)

// DocID identifies a document within a collection.
type DocID uint32

// TermID is an index into the collection vocabulary.
type TermID uint32

// Document is a pre-processed document: an ordered sequence of vocabulary
// term ids (stop words and very frequent terms already removed).
type Document struct {
	ID    DocID
	Terms []TermID
}

// Collection is a document collection D together with its term vocabulary
// T. M = len(Docs) is the collection size; SampleSize() is the paper's D
// (total number of term occurrences).
type Collection struct {
	Vocab []string
	Docs  []Document
}

// M returns the number of documents (the paper's M).
func (c *Collection) M() int { return len(c.Docs) }

// SampleSize returns the total number of term occurrences (the paper's D).
func (c *Collection) SampleSize() int {
	total := 0
	for i := range c.Docs {
		total += len(c.Docs[i].Terms)
	}
	return total
}

// AvgDocLen returns the average document length in terms.
func (c *Collection) AvgDocLen() float64 {
	if len(c.Docs) == 0 {
		return 0
	}
	return float64(c.SampleSize()) / float64(len(c.Docs))
}

// Term returns the vocabulary string for id.
func (c *Collection) Term(id TermID) string { return c.Vocab[id] }

// TermStrings materializes a document's terms as strings.
func (c *Collection) TermStrings(d *Document) []string {
	out := make([]string, len(d.Terms))
	for i, id := range d.Terms {
		out[i] = c.Vocab[id]
	}
	return out
}

// TermFrequencies returns the collection frequency f_D(t) for every
// vocabulary term.
func (c *Collection) TermFrequencies() []int {
	freqs := make([]int, len(c.Vocab))
	for i := range c.Docs {
		for _, id := range c.Docs[i].Terms {
			freqs[id]++
		}
	}
	return freqs
}

// DocumentFrequencies returns df_D(t), the number of documents containing
// each vocabulary term.
func (c *Collection) DocumentFrequencies() []int {
	dfs := make([]int, len(c.Vocab))
	seen := make([]DocID, len(c.Vocab))
	for i := range c.Docs {
		marker := c.Docs[i].ID + 1 // 0 means "not seen"
		for _, id := range c.Docs[i].Terms {
			if seen[id] != marker {
				seen[id] = marker
				dfs[id]++
			}
		}
	}
	return dfs
}

// Slice returns a shallow sub-collection containing docs [lo, hi).
func (c *Collection) Slice(lo, hi int) *Collection {
	return &Collection{Vocab: c.Vocab, Docs: c.Docs[lo:hi]}
}

// SplitRoundRobin distributes documents over n peers round-robin, which is
// statistically equivalent to the paper's "randomly distributed over the
// peers" for a randomly-ordered synthetic collection.
func (c *Collection) SplitRoundRobin(n int) []*Collection {
	if n < 1 {
		n = 1
	}
	parts := make([]*Collection, n)
	for i := range parts {
		parts[i] = &Collection{Vocab: c.Vocab}
	}
	for i := range c.Docs {
		p := i % n
		parts[p].Docs = append(parts[p].Docs, c.Docs[i])
	}
	return parts
}

// GenParams configures the synthetic generator.
type GenParams struct {
	NumDocs    int     // M
	VocabSize  int     // |T|
	AvgDocLen  int     // paper: 225 words per document
	Skew       float64 // Zipf skew of the global term distribution (paper fit: 1.5)
	NumTopics  int     // topical clusters inducing term co-occurrence
	TopicTerms int     // vocabulary span of each topic
	TopicMix   float64 // probability a token is drawn from the doc's topic
	Seed       int64   // determinism
}

// DefaultGenParams mirrors the paper's collection statistics at a
// configurable document count.
func DefaultGenParams(numDocs int) GenParams {
	vocab := numDocs * 8
	if vocab < 2000 {
		vocab = 2000
	}
	if vocab > 400000 {
		vocab = 400000
	}
	topics := numDocs / 500
	if topics < 8 {
		topics = 8
	}
	return GenParams{
		NumDocs:    numDocs,
		VocabSize:  vocab,
		AvgDocLen:  225,
		Skew:       1.1,
		NumTopics:  topics,
		TopicTerms: vocab / 20,
		TopicMix:   0.35,
		Seed:       1,
	}
}

// Validate reports whether the parameters are usable.
func (p GenParams) Validate() error {
	if p.NumDocs < 1 {
		return fmt.Errorf("corpus: NumDocs must be >= 1, got %d", p.NumDocs)
	}
	if p.VocabSize < 10 {
		return fmt.Errorf("corpus: VocabSize must be >= 10, got %d", p.VocabSize)
	}
	if p.AvgDocLen < 4 {
		return fmt.Errorf("corpus: AvgDocLen must be >= 4, got %d", p.AvgDocLen)
	}
	if p.Skew <= 0 {
		return fmt.Errorf("corpus: Skew must be positive, got %g", p.Skew)
	}
	if p.TopicMix < 0 || p.TopicMix > 1 {
		return fmt.Errorf("corpus: TopicMix must be in [0,1], got %g", p.TopicMix)
	}
	return nil
}

// Generate builds a synthetic collection. Documents are assigned a topic;
// each token comes from the topic's term band with probability TopicMix and
// from the global Zipf distribution otherwise. Document lengths are
// normally distributed around AvgDocLen (sd = AvgDocLen/4, min 4).
//
// Generate is deterministic (same params, same documents), the property
// the resumable ingest protocol depends on: a re-streamed shard must
// chunk to identical digests.
func Generate(p GenParams) (*Collection, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(p.Seed))
	dist, err := zipfmodel.NewDist(p.Skew, 1e6, p.VocabSize)
	if err != nil {
		return nil, err
	}
	global := zipfmodel.NewSampler(dist, rng)
	topics := makeTopics(p, rng)
	col := &Collection{Vocab: makeVocab(p.VocabSize), Docs: make([]Document, p.NumDocs)}
	for i := range col.Docs {
		terms := make([]TermID, docLen(rng, p.AvgDocLen))
		topic := topics[i%len(topics)]
		for j := range terms {
			if p.NumTopics > 0 && rng.Float64() < p.TopicMix {
				terms[j] = topic[rng.Intn(len(topic))]
			} else {
				terms[j] = TermID(global.Next() - 1)
			}
		}
		col.Docs[i] = Document{ID: DocID(i), Terms: terms}
	}
	return col, nil
}

func docLen(rng *rand.Rand, avg int) int {
	n := int(rng.NormFloat64()*float64(avg)/4) + avg
	if n < 4 {
		n = 4
	}
	return n
}

// makeTopics builds per-topic term pools. Topics prefer mid-band ranks:
// head terms are shared background, deep-tail terms are document-specific,
// the middle band is where topical co-occurrence (and hence multi-term
// keys with df > 1) lives.
func makeTopics(p GenParams, rng *rand.Rand) [][]TermID {
	if p.NumTopics <= 0 {
		return [][]TermID{{0}}
	}
	topics := make([][]TermID, p.NumTopics)
	bandLo := p.VocabSize / 50
	bandHi := p.VocabSize
	span := p.TopicTerms
	if span < 4 {
		span = 4
	}
	for t := range topics {
		pool := make([]TermID, span)
		for i := range pool {
			pool[i] = TermID(bandLo + rng.Intn(bandHi-bandLo))
		}
		topics[t] = pool
	}
	return topics
}

// makeVocab builds deterministic pseudo-word strings, rank-ordered: term 0
// is the most frequent. Words are pronounceable syllable chains so the
// text pipeline (tokenizer, stemmer) treats them like English tokens.
func makeVocab(n int) []string {
	onsets := []string{"b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "dr", "gr", "kr", "pl", "st"}
	nuclei := []string{"a", "e", "i", "o", "u", "ai", "ea", "ou"}
	vocab := make([]string, n)
	var b strings.Builder
	for i := 0; i < n; i++ {
		b.Reset()
		x := i
		for {
			b.WriteString(onsets[x%len(onsets)])
			x /= len(onsets)
			b.WriteString(nuclei[x%len(nuclei)])
			x /= len(nuclei)
			if x == 0 {
				break
			}
		}
		// Suffix the rank to guarantee uniqueness and immunity to stemming
		// collisions between distinct vocabulary entries.
		fmt.Fprintf(&b, "%d", i)
		vocab[i] = b.String()
	}
	return vocab
}

// Text renders a document back to pseudo-text (terms joined by spaces), for
// examples and tools that exercise the full text pipeline.
func (c *Collection) Text(d *Document) string {
	return strings.Join(c.TermStrings(d), " ")
}
