package rank

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
	"repro/internal/postings"
)

func TestIDFMonotoneDecreasingInDF(t *testing.T) {
	s := CollectionStats{NumDocs: 10000, AvgDocLen: 225}
	prev := math.Inf(1)
	for _, df := range []int{1, 10, 100, 1000, 9999} {
		idf := s.IDF(df)
		if idf >= prev {
			t.Errorf("IDF not decreasing at df=%d", df)
		}
		if idf <= 0 {
			t.Errorf("IDF(%d) = %g, want positive", df, idf)
		}
		prev = idf
	}
}

func TestBM25ScoreProperties(t *testing.T) {
	p := DefaultBM25()
	s := CollectionStats{NumDocs: 100000, AvgDocLen: 225}
	// Increasing tf increases the score (saturating).
	if p.Score(s, 2, 10, 225) <= p.Score(s, 1, 10, 225) {
		t.Error("score not increasing in tf")
	}
	// Rare terms beat common terms.
	if p.Score(s, 1, 5, 225) <= p.Score(s, 1, 5000, 225) {
		t.Error("rare term does not outscore common term")
	}
	// Longer documents are penalized.
	if p.Score(s, 1, 10, 500) >= p.Score(s, 1, 10, 100) {
		t.Error("long document not penalized")
	}
	// Zero tf or df scores zero.
	if p.Score(s, 0, 10, 225) != 0 || p.Score(s, 1, 0, 225) != 0 {
		t.Error("zero tf/df must score 0")
	}
}

func TestBM25Saturation(t *testing.T) {
	// As tf grows the score approaches idf*(k1+1); it must never exceed it.
	p := DefaultBM25()
	s := CollectionStats{NumDocs: 1000, AvgDocLen: 100}
	limit := s.IDF(10) * (p.K1 + 1)
	prop := func(tf uint8) bool {
		return p.Score(s, int(tf), 10, 100) <= limit+1e-12
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestBM25NonNegative(t *testing.T) {
	// Even df close to NumDocs must not go negative (smoothed IDF).
	p := DefaultBM25()
	s := CollectionStats{NumDocs: 100, AvgDocLen: 50}
	if got := p.Score(s, 3, 100, 50); got < 0 {
		t.Errorf("score %g negative for df=N", got)
	}
}

func TestTopKByScore(t *testing.T) {
	l := postings.List{{Doc: 1, Score: 2}, {Doc: 2, Score: 9}, {Doc: 3, Score: 5}}
	res := TopKByScore(l, 2)
	if len(res) != 2 || res[0].Doc != 2 || res[1].Doc != 3 {
		t.Fatalf("TopKByScore = %v", res)
	}
}

// topKFullSort is the reference TopKByScore is held to: convert the whole
// list, sort all of it, keep the first k.
func topKFullSort(l postings.List, k int) []Result {
	res := make([]Result, len(l))
	for i, p := range l {
		res[i] = Result{Doc: p.Doc, Score: float64(p.Score)}
	}
	SortResults(res)
	if k < len(res) {
		res = res[:k]
	}
	return res
}

// randomScoredList is n postings with unique doc ids in random order and
// scores drawn from `levels` distinct values — few levels means heavy
// ties, which only the doc-id tie-break orders.
func randomScoredList(rng *rand.Rand, n, levels int) postings.List {
	l := make(postings.List, n)
	for i, doc := range rng.Perm(n) {
		l[i] = postings.Posting{Doc: corpus.DocID(doc), Score: float32(rng.Intn(levels)) / 4}
	}
	return l
}

// TestTopKByScoreMatchesFullSort: the bounded selection returns exactly
// what sorting the whole list and truncating does, at every k around the
// edges and under heavy score ties.
func TestTopKByScoreMatchesFullSort(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for trial := 0; trial < 300; trial++ {
		n := rng.Intn(60)
		if trial == 0 {
			n = 0 // the empty list
		}
		l := randomScoredList(rng, n, 1+rng.Intn(4))
		for _, k := range []int{0, 1, 10, n, n + 5} {
			got, want := TopKByScore(l, k), topKFullSort(l, k)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("n=%d k=%d list %v:\n got %v\nwant %v", n, k, l, got, want)
			}
		}
	}
}

func BenchmarkTopKByScore(b *testing.B) {
	l := randomScoredList(rand.New(rand.NewSource(1)), 200, 50)
	b.ReportAllocs()
	b.ResetTimer()
	n := 0
	for i := 0; i < b.N; i++ {
		n += len(TopKByScore(l, 10))
	}
	if n != 10*b.N {
		b.Fatalf("kept %d results over %d runs", n, b.N)
	}
}

func TestSortResultsDeterministicTies(t *testing.T) {
	res := []Result{{Doc: 9, Score: 1}, {Doc: 3, Score: 1}, {Doc: 7, Score: 2}}
	SortResults(res)
	if res[0].Doc != 7 || res[1].Doc != 3 || res[2].Doc != 9 {
		t.Fatalf("tie order wrong: %v", res)
	}
}

func TestOverlap(t *testing.T) {
	ref := []Result{{Doc: 1}, {Doc: 2}, {Doc: 3}, {Doc: 4}}
	cand := []Result{{Doc: 2}, {Doc: 4}, {Doc: 9}, {Doc: 10}}
	if got := Overlap(ref, cand, 4); got != 50 {
		t.Errorf("Overlap = %g, want 50", got)
	}
	if got := Overlap(ref, ref, 4); got != 100 {
		t.Errorf("self overlap = %g, want 100", got)
	}
	if got := Overlap(ref, nil, 4); got != 0 {
		t.Errorf("empty candidate overlap = %g, want 0", got)
	}
	if got := Overlap(nil, cand, 4); got != 0 {
		t.Errorf("empty reference overlap = %g, want 0", got)
	}
	// k truncation applies to both sides.
	if got := Overlap(ref, cand, 1); got != 0 {
		t.Errorf("Overlap@1 = %g, want 0 (ref top-1 is doc 1)", got)
	}
}
