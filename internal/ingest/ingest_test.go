package ingest

import (
	"fmt"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

func TestAddAndBuild(t *testing.T) {
	b := NewBuilder()
	id0 := b.Add("Peer-to-peer networks are scalable networks.")
	id1 := b.Add("Discriminative keys bound the posting lists.")
	if id0 != 0 || id1 != 1 {
		t.Fatalf("ids = %d,%d", id0, id1)
	}
	col := b.Build()
	if col.M() != 2 {
		t.Fatalf("M = %d", col.M())
	}
	// "are", "the" are stop words and must not be in the vocabulary.
	for _, w := range col.Vocab {
		if w == "are" || w == "the" {
			t.Errorf("stop word %q survived ingestion", w)
		}
	}
	// Stemming: "networks" -> "network", appearing twice in doc 0.
	id, ok := b.TermID("network")
	if !ok {
		t.Fatal("stem 'network' not in vocabulary")
	}
	count := 0
	for _, tm := range col.Docs[0].Terms {
		if tm == id {
			count++
		}
	}
	if count != 2 {
		t.Errorf("'network' occurs %d times in doc 0, want 2", count)
	}
}

func TestVocabularyInterning(t *testing.T) {
	b := NewBuilder()
	b.Add("alpha beta alpha")
	b.Add("beta gamma")
	if b.VocabSize() != 3 {
		t.Fatalf("vocab size %d, want 3", b.VocabSize())
	}
	col := b.Build()
	// Same term in both docs must share one id.
	var betaIDs []corpus.TermID
	id, _ := b.TermID("beta")
	for i := range col.Docs {
		for _, tm := range col.Docs[i].Terms {
			if col.Vocab[tm] == "beta" {
				betaIDs = append(betaIDs, tm)
			}
		}
	}
	for _, bid := range betaIDs {
		if bid != id {
			t.Fatal("beta interned under two ids")
		}
	}
}

func TestEmptyDocumentKeepsNumbering(t *testing.T) {
	b := NewBuilder()
	b.Add("the and of") // all stop words
	id := b.Add("substance")
	if id != 1 {
		t.Fatalf("second doc id = %d, want 1", id)
	}
	col := b.Build()
	if len(col.Docs[0].Terms) != 0 {
		t.Errorf("stop-word-only doc has %d terms", len(col.Docs[0].Terms))
	}
}

func TestParseQuery(t *testing.T) {
	b := NewBuilder()
	b.Add("distributed retrieval engines index documents")
	q, unknown := b.ParseQuery("The distributed INDEXING of document")
	// "the" dropped; "distributed" matches; "indexing" stems to "index";
	// "document" matches the stem of "documents".
	if len(unknown) != 0 {
		t.Fatalf("unexpected unknown terms %v", unknown)
	}
	if len(q.Terms) != 3 {
		t.Fatalf("query has %d terms, want 3", len(q.Terms))
	}
	q2, unknown2 := b.ParseQuery("zebra retrieval")
	if len(q2.Terms) != 1 || len(unknown2) != 1 || unknown2[0] != "zebra" {
		t.Fatalf("q2=%v unknown=%v", q2.Terms, unknown2)
	}
}

func TestBuilderRemainsUsableAfterBuild(t *testing.T) {
	b := NewBuilder()
	b.Add("first document")
	colA := b.Build()
	b.Add("second document arrives")
	colB := b.Build()
	if colA.M() != 1 {
		t.Fatalf("earlier snapshot mutated: M=%d", colA.M())
	}
	if colB.M() != 2 {
		t.Fatalf("M after second add = %d", colB.M())
	}
}

func TestStats(t *testing.T) {
	b := NewBuilder()
	b.Add("apple banana cherry")
	b.Add("date elderberry")
	s := b.Stats()
	if s.Docs != 2 || s.SampleSize != 5 || s.AvgDocLen != 2.5 {
		t.Fatalf("Stats = %+v", s)
	}
	if _, ok := b.TermID("cherri"); !ok {
		t.Error("stem 'cherri' not in vocabulary")
	}
	if got := fmt.Sprint(s); got == "" {
		t.Error("empty String()")
	}
}

func TestBuildSnapshotIsolation(t *testing.T) {
	b := NewBuilder()
	b.Add("alpha beta")
	col := b.Build()
	vocabLen := len(col.Vocab)
	b.Add("gamma delta epsilon")
	if len(col.Vocab) != vocabLen {
		t.Fatal("snapshot vocabulary aliased builder state")
	}
	if !reflect.DeepEqual(col.Docs[0].Terms, b.Build().Docs[0].Terms) {
		t.Fatal("document terms diverged")
	}
}
