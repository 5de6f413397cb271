package textproc

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestTokenizeBasic(t *testing.T) {
	cases := []struct {
		in   string
		want []string
	}{
		{"Hello, World!", []string{"hello", "world"}},
		{"peer-to-peer", []string{"peer", "to", "peer"}},
		{"", nil},
		{"   ", nil},
		{"P2P networks scale to 1,000,000 peers.",
			[]string{"p2p", "networks", "scale", "to", "000", "000", "peers"}},
		{"a I x", nil}, // single-char tokens dropped
		{"BM25", []string{"bm25"}},
	}
	for _, c := range cases {
		got := Tokenize(c.in)
		if len(got) == 0 && len(c.want) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("Tokenize(%q) = %v, want %v", c.in, got, c.want)
		}
	}
}

func TestTokenizeDropsOverlongTokens(t *testing.T) {
	long := strings.Repeat("x", MaxTokenLen+1)
	if got := Tokenize("ok " + long + " fine"); !reflect.DeepEqual(got, []string{"ok", "fine"}) {
		t.Errorf("overlong token not dropped: %v", got)
	}
	exact := strings.Repeat("x", MaxTokenLen)
	if got := Tokenize(exact); !reflect.DeepEqual(got, []string{exact}) {
		t.Errorf("max-length token wrongly dropped: %v", got)
	}
}

func TestTokenizeLowercases(t *testing.T) {
	prop := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if tok != strings.ToLower(tok) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestTokenizeTokensAreAlphanumeric(t *testing.T) {
	prop := func(s string) bool {
		for _, tok := range Tokenize(s) {
			if len(tok) < MinTokenLen {
				return false
			}
			for _, r := range tok {
				if !((r >= 'a' && r <= 'z') || (r >= '0' && r <= '9') ||
					r > 127) { // non-ASCII letters/digits are kept lowercased
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestStopWordCountIs250(t *testing.T) {
	if StopWordCount != 250 {
		t.Fatalf("stop list has %d entries, want 250 (paper Section 5)", StopWordCount)
	}
	seen := map[string]bool{}
	for _, w := range stopWords {
		if seen[w] {
			t.Errorf("duplicate stop word %q", w)
		}
		seen[w] = true
	}
}

func TestPipelineProcess(t *testing.T) {
	p := NewPipeline()
	got := p.Process("The quick brown foxes are jumping over the lazy dogs")
	want := []string{"quick", "brown", "fox", "jump", "lazi", "dog"}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Process = %v, want %v", got, want)
	}
}

func TestPipelineRemovesStopWords(t *testing.T) {
	p := NewPipeline()
	for _, tok := range p.Process("the and of to in is was") {
		t.Errorf("stop word survived pipeline: %q", tok)
	}
}

func BenchmarkPipelineProcess(b *testing.B) {
	p := NewPipeline()
	text := strings.Repeat("the scalable peer to peer retrieval of documents with highly discriminative keys ", 30)
	b.ReportAllocs()
	b.SetBytes(int64(len(text)))
	for i := 0; i < b.N; i++ {
		p.Process(text)
	}
}
