package postings

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"repro/internal/corpus"
)

// mk builds a list with zero scores from raw doc ids.
func mk(docs ...corpus.DocID) List {
	l := make(List, len(docs))
	for i, d := range docs {
		l[i] = Posting{Doc: d}
	}
	l.normalize()
	return l
}

// normalize makes arbitrary postings a valid List in place: sorted by doc
// id, duplicate docs merged keeping the highest score.
func (l *List) normalize() {
	s := *l
	sort.Slice(s, func(i, j int) bool { return s[i].Doc < s[j].Doc })
	out := s[:0]
	for _, p := range s {
		if n := len(out); n > 0 && out[n-1].Doc == p.Doc {
			if p.Score > out[n-1].Score {
				out[n-1].Score = p.Score
			}
			continue
		}
		out = append(out, p)
	}
	*l = out
}

func TestMkSortsAndDedups(t *testing.T) {
	l := mk(5, 1, 3, 1, 5)
	want := []corpus.DocID{1, 3, 5}
	if !reflect.DeepEqual(l.Docs(), want) {
		t.Fatalf("got %v, want %v", l.Docs(), want)
	}
	if !l.IsSorted() {
		t.Fatal("not sorted")
	}
}

func TestNormalizeKeepsMaxScore(t *testing.T) {
	l := List{{Doc: 2, Score: 1}, {Doc: 2, Score: 7}, {Doc: 1, Score: 3}}
	l.normalize()
	if len(l) != 2 || l[0].Doc != 1 || l[1].Doc != 2 || l[1].Score != 7 {
		t.Fatalf("normalize = %v", l)
	}
}

func TestUnionBasic(t *testing.T) {
	a := List{{Doc: 1, Score: 1}, {Doc: 3, Score: 2}}
	b := List{{Doc: 2, Score: 1}, {Doc: 3, Score: 5}}
	u := Union(a, b)
	want := List{{Doc: 1, Score: 1}, {Doc: 2, Score: 1}, {Doc: 3, Score: 7}}
	if !reflect.DeepEqual(u, want) {
		t.Fatalf("Union = %v, want %v", u, want)
	}
}

func TestIntersectBasic(t *testing.T) {
	a := List{{Doc: 1, Score: 1}, {Doc: 3, Score: 2}, {Doc: 9, Score: 1}}
	b := List{{Doc: 3, Score: 5}, {Doc: 8, Score: 1}, {Doc: 9, Score: 2}}
	got := Intersect(a, b)
	want := List{{Doc: 3, Score: 7}, {Doc: 9, Score: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Intersect = %v, want %v", got, want)
	}
}

func TestSetOpsEmpty(t *testing.T) {
	a := mk(1, 2)
	if got := Union(a, nil); !reflect.DeepEqual(got.Docs(), a.Docs()) {
		t.Errorf("Union with empty = %v", got)
	}
	if got := Intersect(a, nil); len(got) != 0 {
		t.Errorf("Intersect with empty = %v", got)
	}
	if got := UnionAll(nil); len(got) != 0 {
		t.Errorf("UnionAll(nil) = %v", got)
	}
}

func randomList(r *rand.Rand, n int) List {
	seen := map[corpus.DocID]bool{}
	l := make(List, 0, n)
	for len(l) < n {
		d := corpus.DocID(r.Intn(n * 4))
		if seen[d] {
			continue
		}
		seen[d] = true
		l = append(l, Posting{Doc: d, Score: float32(r.Intn(100))})
	}
	sort.Slice(l, func(i, j int) bool { return l[i].Doc < l[j].Doc })
	return l
}

func TestUnionIntersectProperties(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	for iter := 0; iter < 200; iter++ {
		a := randomList(r, r.Intn(50))
		b := randomList(r, r.Intn(50))
		u := Union(a, b)
		x := Intersect(a, b)
		if !u.IsSorted() || !x.IsSorted() {
			t.Fatal("result not sorted")
		}
		// |A ∪ B| + |A ∩ B| = |A| + |B|
		if len(u)+len(x) != len(a)+len(b) {
			t.Fatalf("inclusion-exclusion violated: %d+%d != %d+%d", len(u), len(x), len(a), len(b))
		}
		// Intersection commutes (score addition is symmetric).
		if !reflect.DeepEqual(Intersect(b, a), x) {
			t.Fatal("Intersect not commutative")
		}
		if !reflect.DeepEqual(Union(b, a), u) {
			t.Fatal("Union not commutative")
		}
		// The in-place fold is the same merge, whether a's backing array
		// has room for b (merged where it stands) or not (grown first).
		for _, spare := range []int{0, len(b), 3 * len(b)} {
			own := append(make(List, 0, len(a)+spare), a...)
			got := UnionInPlace(own, append(List(nil), b...))
			if len(got) != len(u) || (len(u) > 0 && !reflect.DeepEqual(got, u)) {
				t.Fatalf("UnionInPlace(spare %d) = %v, want %v", spare, got, u)
			}
			if spare >= len(b) && len(a) > 0 && len(b) > 0 && &got[0] != &own[0] {
				t.Fatalf("UnionInPlace reallocated with %d spare slots for %d postings", spare, len(b))
			}
		}
		// Every intersection doc in both inputs.
		for _, p := range x {
			if !a.Contains(p.Doc) || !b.Contains(p.Doc) {
				t.Fatal("intersection contains foreign doc")
			}
		}
	}
}

func TestTopK(t *testing.T) {
	l := List{{Doc: 1, Score: 5}, {Doc: 2, Score: 9}, {Doc: 3, Score: 1}, {Doc: 4, Score: 9}}
	got := l.TopK(2)
	// Two score-9 docs win; result re-sorted by doc id.
	want := List{{Doc: 2, Score: 9}, {Doc: 4, Score: 9}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK = %v, want %v", got, want)
	}
	if got := l.TopK(0); len(got) != 0 {
		t.Errorf("TopK(0) = %v", got)
	}
	if got := l.TopK(10); len(got) != len(l) {
		t.Errorf("TopK(10) truncated to %d", len(got))
	}
	// TopK must not mutate the input.
	if !l.IsSorted() {
		t.Error("TopK mutated receiver order")
	}
}

func TestTopKTieBreakByDocID(t *testing.T) {
	l := List{{Doc: 7, Score: 3}, {Doc: 9, Score: 3}, {Doc: 11, Score: 3}}
	got := l.TopK(2)
	want := List{{Doc: 7, Score: 3}, {Doc: 9, Score: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TopK tie-break = %v, want %v", got, want)
	}
}

// topKBySort is the sort-based reference TopK: the whole list ordered by
// score descending then doc ascending, cut at k, re-sorted by doc.
func topKBySort(l List, k int) List {
	byScore := append(List(nil), l...)
	sort.Slice(byScore, func(i, j int) bool {
		if byScore[i].Score != byScore[j].Score {
			return byScore[i].Score > byScore[j].Score
		}
		return byScore[i].Doc < byScore[j].Doc
	})
	if k < 0 {
		k = 0
	}
	if k < len(byScore) {
		byScore = byScore[:k]
	}
	sort.Slice(byScore, func(i, j int) bool { return byScore[i].Doc < byScore[j].Doc })
	return byScore
}

// TestTopKMatchesSortReference holds the heap selection to the sort-based
// reference on lists whose scores tie heavily (four distinct values), and
// checks that the result owns exactly its own postings.
func TestTopKMatchesSortReference(t *testing.T) {
	const dfMax = 20
	r := rand.New(rand.NewSource(17))
	for iter := 0; iter < 300; iter++ {
		l := randomList(r, r.Intn(120))
		for i := range l {
			l[i].Score = float32(r.Intn(4))
		}
		orig := append(List{}, l...)
		for _, k := range []int{0, 1, dfMax, len(l), len(l) + 5} {
			got := l.TopK(k)
			want := topKBySort(l, k)
			if len(got) != len(want) || (len(want) > 0 && !reflect.DeepEqual(got, want)) {
				t.Fatalf("len %d, k %d: TopK = %v, want %v", len(l), k, got, want)
			}
			if cap(got) != len(want) {
				t.Fatalf("len %d, k %d: cap(TopK) = %d, want %d", len(l), k, cap(got), len(want))
			}
			if len(got) > 0 && &got[0] == &l[0] {
				t.Fatalf("len %d, k %d: TopK aliases its receiver", len(l), k)
			}
			if !reflect.DeepEqual(l, orig) {
				t.Fatalf("len %d, k %d: TopK mutated its receiver", len(l), k)
			}
		}
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for iter := 0; iter < 300; iter++ {
		l := randomList(r, r.Intn(80))
		buf := Encode(nil, l)
		if len(buf) != EncodedSize(l) {
			t.Fatalf("EncodedSize = %d, actual %d", EncodedSize(l), len(buf))
		}
		got, n, err := Decode(buf)
		if err != nil {
			t.Fatal(err)
		}
		if n != len(buf) {
			t.Fatalf("consumed %d of %d bytes", n, len(buf))
		}
		if len(got) == 0 && len(l) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, l) {
			t.Fatalf("round trip: got %v, want %v", got, l)
		}
	}
}

func TestEncodeDecodeQuick(t *testing.T) {
	prop := func(raw []uint32, scores []uint8) bool {
		l := make(List, 0, len(raw))
		for i, d := range raw {
			var s float32
			if i < len(scores) {
				s = float32(scores[i])
			}
			l = append(l, Posting{Doc: corpus.DocID(d), Score: s})
		}
		l.normalize()
		got, _, err := Decode(Encode(nil, l))
		if err != nil {
			return false
		}
		if len(got) != len(l) {
			return false
		}
		for i := range got {
			if got[i] != l[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestDecodeCorrupt(t *testing.T) {
	cases := [][]byte{
		{},                 // empty
		{0xff},             // truncated uvarint
		{0x02, 0x01},       // count 2, truncated body
		{0x01, 0x00, 0x01}, // posting missing score bytes
	}
	for i, buf := range cases {
		if _, _, err := Decode(buf); err == nil {
			t.Errorf("case %d: corrupt input accepted", i)
		}
	}
}

func TestDecodeHugeCountRejected(t *testing.T) {
	var buf []byte
	buf = append(buf, 0xff, 0xff, 0xff, 0xff, 0x0f) // count ~ 2^32
	if _, _, err := Decode(buf); err == nil {
		t.Error("absurd count accepted")
	}
}

func BenchmarkEncode(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	l := randomList(r, 400) // a DFmax-sized posting list
	var buf []byte
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Encode(buf[:0], l)
	}
	b.SetBytes(int64(len(buf)))
}

func BenchmarkUnion(b *testing.B) {
	r := rand.New(rand.NewSource(2))
	x := randomList(r, 400)
	y := randomList(r, 400)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Union(x, y)
	}
}
