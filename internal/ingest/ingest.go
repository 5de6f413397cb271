// Package ingest turns raw text documents into the collection model the
// engines index: it runs the full text pipeline (tokenizer, 250-word stop
// list, Porter stemmer) over each document, interns the resulting terms
// into a vocabulary, and applies the collection-adaptive very-frequent-
// term cutoff. It also parses free-text queries against the built
// vocabulary, so the whole paper pipeline — raw web-like text in, ranked
// answers out — is exercised end to end.
package ingest

import (
	"fmt"

	"repro/internal/corpus"
	"repro/internal/textproc"
)

// Builder accumulates documents and produces a corpus.Collection.
type Builder struct {
	pipeline *textproc.Pipeline
	vocab    []string
	ids      map[string]corpus.TermID
	docs     []corpus.Document
}

// NewBuilder returns a Builder using the standard pipeline (stop words +
// Porter stemming).
func NewBuilder() *Builder {
	return &Builder{
		pipeline: textproc.NewPipeline(),
		ids:      make(map[string]corpus.TermID),
	}
}

// Add ingests one raw text document and returns its assigned id. Empty
// documents (nothing survives the pipeline) are still assigned an id so
// external document numbering stays aligned.
func (b *Builder) Add(text string) corpus.DocID {
	terms := b.pipeline.Process(text)
	doc := corpus.Document{ID: corpus.DocID(len(b.docs))}
	doc.Terms = make([]corpus.TermID, len(terms))
	for i, t := range terms {
		doc.Terms[i] = b.intern(t)
	}
	b.docs = append(b.docs, doc)
	return doc.ID
}

func (b *Builder) intern(term string) corpus.TermID {
	if id, ok := b.ids[term]; ok {
		return id
	}
	id := corpus.TermID(len(b.vocab))
	b.vocab = append(b.vocab, term)
	b.ids[term] = id
	return id
}

// Build finalizes the collection. The Builder remains usable; later Adds
// extend the same vocabulary.
func (b *Builder) Build() *corpus.Collection {
	vocab := make([]string, len(b.vocab))
	copy(vocab, b.vocab)
	docs := make([]corpus.Document, len(b.docs))
	copy(docs, b.docs)
	return &corpus.Collection{Vocab: vocab, Docs: docs}
}

// NumDocs returns the number of ingested documents.
func (b *Builder) NumDocs() int { return len(b.docs) }

// VocabSize returns the current vocabulary size.
func (b *Builder) VocabSize() int { return len(b.vocab) }

// ParseQuery runs the same pipeline over free-text query input and maps
// the surviving tokens onto the built vocabulary. Unknown terms (never
// seen in any document) are returned separately: the caller typically
// reports them, as a web engine reports "no results for X".
func (b *Builder) ParseQuery(text string) (corpus.Query, []string) {
	var q corpus.Query
	var unknown []string
	for _, t := range b.pipeline.Process(text) {
		if id, ok := b.ids[t]; ok {
			q.Terms = append(q.Terms, id)
		} else {
			unknown = append(unknown, t)
		}
	}
	return q, unknown
}

// TermID resolves a pipeline-processed term string.
func (b *Builder) TermID(term string) (corpus.TermID, bool) {
	id, ok := b.ids[term]
	return id, ok
}

// Stats summarizes an ingest run.
type Stats struct {
	Docs       int
	Vocabulary int
	SampleSize int
	AvgDocLen  float64
}

// Stats computes summary statistics over the ingested documents.
func (b *Builder) Stats() Stats {
	total := 0
	for i := range b.docs {
		total += len(b.docs[i].Terms)
	}
	s := Stats{Docs: len(b.docs), Vocabulary: len(b.vocab), SampleSize: total}
	if len(b.docs) > 0 {
		s.AvgDocLen = float64(total) / float64(len(b.docs))
	}
	return s
}

// String implements fmt.Stringer.
func (s Stats) String() string {
	return fmt.Sprintf("ingest{docs=%d vocab=%d occurrences=%d avglen=%.1f}",
		s.Docs, s.Vocabulary, s.SampleSize, s.AvgDocLen)
}
