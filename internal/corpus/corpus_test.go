package corpus

import (
	"errors"
	"math"
	"sort"
	"testing"

	"repro/internal/zipfmodel"
)

func small(t *testing.T, docs int) *Collection {
	t.Helper()
	p := DefaultGenParams(docs)
	p.AvgDocLen = 60
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestGenerateBasicStats(t *testing.T) {
	p := DefaultGenParams(500)
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	if c.M() != 500 {
		t.Fatalf("M = %d, want 500", c.M())
	}
	avg := c.AvgDocLen()
	if avg < 200 || avg > 250 {
		t.Errorf("avg doc len = %.1f, want ~225 (paper Table 1)", avg)
	}
	if c.SampleSize() < 500*150 {
		t.Errorf("sample size %d implausibly small", c.SampleSize())
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := DefaultGenParams(50)
	a, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Docs {
		at, bt := a.Docs[i].Terms, b.Docs[i].Terms
		if len(at) != len(bt) {
			t.Fatalf("doc %d length differs", i)
		}
		for j := range at {
			if at[j] != bt[j] {
				t.Fatalf("doc %d term %d differs", i, j)
			}
		}
	}
}

func TestGenerateSeedChangesOutput(t *testing.T) {
	p := DefaultGenParams(20)
	a, _ := Generate(p)
	p.Seed = 2
	b, _ := Generate(p)
	same := true
	for i := range a.Docs {
		if len(a.Docs[i].Terms) != len(b.Docs[i].Terms) {
			same = false
			break
		}
		for j := range a.Docs[i].Terms {
			if a.Docs[i].Terms[j] != b.Docs[i].Terms[j] {
				same = false
				break
			}
		}
	}
	if same {
		t.Error("different seeds produced identical collections")
	}
}

func TestGenerateValidation(t *testing.T) {
	bad := []GenParams{
		{NumDocs: 0, VocabSize: 100, AvgDocLen: 50, Skew: 1.5},
		{NumDocs: 10, VocabSize: 5, AvgDocLen: 50, Skew: 1.5},
		{NumDocs: 10, VocabSize: 100, AvgDocLen: 1, Skew: 1.5},
		{NumDocs: 10, VocabSize: 100, AvgDocLen: 50, Skew: 0},
		{NumDocs: 10, VocabSize: 100, AvgDocLen: 50, Skew: 1.5, TopicMix: 1.5},
	}
	for i, p := range bad {
		if _, err := Generate(p); err == nil {
			t.Errorf("case %d: invalid params accepted", i)
		}
	}
}

func TestTermFrequenciesFollowZipf(t *testing.T) {
	p := DefaultGenParams(400)
	p.TopicMix = 0 // pure Zipf sampling for this test
	c, err := Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	freqs := c.TermFrequencies()
	// Head terms must dominate: rank-0 term at least 5x the rank-100 term.
	if freqs[0] < 5*freqs[100] {
		t.Errorf("head not dominant: f[0]=%d f[100]=%d", freqs[0], freqs[100])
	}
	skew, _, err := fitZipf(freqs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if skew < 0.6 || skew > 1.8 {
		t.Errorf("fitted skew %.2f outside plausible zipfian range", skew)
	}
}

var errInsufficientData = errors.New("need at least 2 distinct frequencies to fit")

// fitZipf estimates (skew, scale) from an observed frequency table by
// ordinary least squares in log-log space: log f = log C - a·log r.
// Frequencies are sorted descending to assign ranks. The tail where
// f < minFreq is excluded, mirroring the paper's proof device of
// ignoring hapax legomena.
func fitZipf(freqs []int, minFreq int) (skew, scale float64, err error) {
	fs := make([]int, 0, len(freqs))
	for _, f := range freqs {
		if f >= minFreq && f > 0 {
			fs = append(fs, f)
		}
	}
	sort.Sort(sort.Reverse(sort.IntSlice(fs)))
	if len(fs) < 2 || fs[0] == fs[len(fs)-1] {
		return 0, 0, errInsufficientData
	}
	var sx, sy, sxx, sxy float64
	n := float64(len(fs))
	for i, f := range fs {
		x := math.Log(float64(i + 1))
		y := math.Log(float64(f))
		sx += x
		sy += y
		sxx += x * x
		sxy += x * y
	}
	denom := n*sxx - sx*sx
	if denom == 0 {
		return 0, 0, errInsufficientData
	}
	slope := (n*sxy - sx*sy) / denom
	intercept := (sy - slope*sx) / n
	return -slope, math.Exp(intercept), nil
}

func TestFitRecoversSkew(t *testing.T) {
	// Exact Zipf frequencies: the fit must recover the skew.
	for _, a := range []float64{0.9, 1.2, 1.5} {
		d, _ := zipfmodel.NewDist(a, 1e7, 5000)
		freqs := make([]int, d.V)
		for r := 1; r <= d.V; r++ {
			freqs[r-1] = int(d.Freq(r))
		}
		skew, scale, err := fitZipf(freqs, 2)
		if err != nil {
			t.Fatalf("fit failed for a=%g: %v", a, err)
		}
		if math.Abs(skew-a) > 0.05 {
			t.Errorf("fitted skew %.3f, want %.2f", skew, a)
		}
		if scale <= 0 {
			t.Errorf("fitted scale %.3g, want positive", scale)
		}
	}
}

func TestFitInsufficientData(t *testing.T) {
	if _, _, err := fitZipf([]int{5}, 1); err == nil {
		t.Error("single point accepted")
	}
	if _, _, err := fitZipf([]int{7, 7, 7}, 1); err == nil {
		t.Error("constant frequencies accepted")
	}
	if _, _, err := fitZipf(nil, 1); err == nil {
		t.Error("empty input accepted")
	}
}

func TestDocumentFrequenciesVsTermFrequencies(t *testing.T) {
	c := small(t, 100)
	tf := c.TermFrequencies()
	df := c.DocumentFrequencies()
	for id := range tf {
		if df[id] > tf[id] {
			t.Fatalf("term %d: df %d > tf %d (df(k) <= f(k) must hold)", id, df[id], tf[id])
		}
		if df[id] > c.M() {
			t.Fatalf("term %d: df %d > M %d", id, df[id], c.M())
		}
		if (tf[id] > 0) != (df[id] > 0) {
			t.Fatalf("term %d: tf %d but df %d", id, tf[id], df[id])
		}
	}
}

func TestSplitRoundRobin(t *testing.T) {
	c := small(t, 103)
	parts := c.SplitRoundRobin(4)
	if len(parts) != 4 {
		t.Fatalf("got %d parts", len(parts))
	}
	total := 0
	seen := map[DocID]bool{}
	for _, p := range parts {
		total += p.M()
		for i := range p.Docs {
			if seen[p.Docs[i].ID] {
				t.Fatalf("doc %d in two partitions", p.Docs[i].ID)
			}
			seen[p.Docs[i].ID] = true
		}
	}
	if total != c.M() {
		t.Fatalf("partition sizes sum to %d, want %d", total, c.M())
	}
	// Balance within 1.
	for _, p := range parts {
		if d := p.M() - c.M()/4; d < 0 || d > 1 {
			t.Errorf("unbalanced partition size %d", p.M())
		}
	}
}

func TestVocabUniqueAndTokenizable(t *testing.T) {
	vocab := makeVocab(5000)
	seen := map[string]bool{}
	for i, w := range vocab {
		if seen[w] {
			t.Fatalf("duplicate vocab word %q at rank %d", w, i)
		}
		seen[w] = true
		if len(w) < 2 {
			t.Fatalf("vocab word %q too short for the tokenizer", w)
		}
	}
}

func TestTextRoundTrip(t *testing.T) {
	c := small(t, 3)
	text := c.Text(&c.Docs[0])
	if len(text) == 0 {
		t.Fatal("empty text")
	}
}
