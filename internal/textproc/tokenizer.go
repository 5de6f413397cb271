// Package textproc implements the text-processing pipeline used by the HDK
// retrieval engine: tokenization, stop-word removal, Porter stemming and
// sliding-window extraction.
//
// The pipeline mirrors the pre-processing described in Section 5 of the
// paper: "First we remove 250 common English stop words and apply the Porter
// stemmer, and then we removed additional very frequent terms." The
// very-frequent-term removal is collection-dependent and therefore lives in
// the indexing layer; this package provides the collection-independent
// stages.
package textproc

import (
	"strings"
	"unicode"
)

// Tokenize splits text into lower-cased alphanumeric tokens. Tokens shorter
// than MinTokenLen or longer than MaxTokenLen runes are dropped: one-letter
// tokens carry no retrieval signal and pathologically long tokens are almost
// always markup noise.
func Tokenize(text string) []string {
	const avgTokenLen = 6
	out := make([]string, 0, len(text)/avgTokenLen)
	var b strings.Builder
	flush := func() {
		if b.Len() >= MinTokenLen && b.Len() <= MaxTokenLen {
			out = append(out, b.String())
		}
		b.Reset()
	}
	for _, r := range text {
		switch {
		case unicode.IsLetter(r) || unicode.IsDigit(r):
			b.WriteRune(unicode.ToLower(r))
		default:
			flush()
		}
	}
	flush()
	return out
}

// Token length bounds enforced by Tokenize (in bytes of the lower-cased
// form, which equals runes for ASCII input).
const (
	MinTokenLen = 2
	MaxTokenLen = 40
)

// Pipeline bundles the full collection-independent pre-processing chain:
// the standard 250-word English stop list, then Porter stemming. The
// collection-dependent very-frequent-term cutoff (the paper's "additional
// very frequent terms") is the indexing layer's Ff, not a pipeline stage.
// The zero value is not usable; construct with NewPipeline.
type Pipeline struct {
	stop map[string]struct{}
}

// NewPipeline returns the standard pipeline.
func NewPipeline() *Pipeline {
	return &Pipeline{stop: stopSet()}
}

// Process runs the full chain on raw text and returns the sequence of index
// terms in document order (order matters for proximity filtering).
func (p *Pipeline) Process(text string) []string {
	return p.ProcessTokens(Tokenize(text))
}

// ProcessTokens runs stop-word removal and stemming on pre-split tokens.
func (p *Pipeline) ProcessTokens(tokens []string) []string {
	out := tokens[:0:0]
	for _, t := range tokens {
		if _, ok := p.stop[t]; ok {
			continue
		}
		if t = Stem(t); len(t) < MinTokenLen {
			continue
		}
		out = append(out, t)
	}
	return out
}
