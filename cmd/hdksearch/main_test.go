package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/rank"
	"repro/internal/transport"
)

// TestMain lets a test re-run this binary as the shell itself: with
// HDKSEARCH_SHELL=1 the process is main(), with the arguments it was
// started with.
func TestMain(m *testing.M) {
	if os.Getenv("HDKSEARCH_SHELL") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestInProcessShell scripts the shell without -connect end to end: 60
// documents on 3 in-process daemons, -trace, a query from the sample
// vocabulary typed twice, ":stats", ":doc 0" and ":quit". The shell
// must exit 0, report its index, rank an answer, print the
// coordinator's span tree under the first answer, answer the repeat
// from the coordinator's result cache, and count in ":stats" exactly
// the lattice probes, fetch RPCs and levels the query reported. Its
// ranked lines and index figures must equal those of an in-process
// core.Engine built from the same corpus and configuration.
func TestInProcessShell(t *testing.T) {
	const query = "bi40 di41"
	cmd := exec.Command(os.Args[0], "-docs", "60", "-peers", "3", "-trace")
	cmd.Env = append(os.Environ(), "HDKSEARCH_SHELL=1")
	cmd.Stdin = strings.NewReader(query + "\n" + query + "\n:stats\n:doc 0\n:quit\n")
	raw, err := cmd.CombinedOutput()
	out := string(raw)
	if err != nil {
		t.Fatalf("shell exited: %v\n%s", err, out)
	}
	if !strings.Contains(out, "\nindex ready: ") {
		t.Errorf("no index-ready line:\n%s", out)
	}
	var results, probed, found, posts, rpcs, levels int
	var heads []string
	for _, line := range strings.Split(out, "\n") {
		if h, ok := strings.CutPrefix(line, "> "); ok && strings.Contains(h, " results | probed ") {
			heads = append(heads, h)
		}
	}
	if len(heads) != 2 {
		t.Fatalf("want 2 answers, got %d in:\n%s", len(heads), out)
	}
	if _, err := fmt.Sscanf(heads[1], "%d results | probed %d keys, found %d, fetched %d postings | %d batched RPCs over %d levels",
		&results, &probed, &found, &posts, &rpcs, &levels); err != nil || results == 0 {
		t.Fatalf("no ranked answer (%v) in:\n%s", err, out)
	}
	if !strings.Contains(out, "\n 1. doc ") {
		t.Errorf("answer has no ranked list:\n%s", out)
	}
	if strings.HasSuffix(heads[0], "[coordinator cache]") || !strings.HasSuffix(heads[1], " [coordinator cache]") {
		t.Errorf("want the repeated query, and only it, answered from the coordinator cache: %q", heads)
	}
	want := fmt.Sprintf("queries: %d lattice probes answered by %d batched fetch RPCs over %d levels (0 replica failovers)", probed, rpcs, levels)
	if !strings.Contains(out, want) {
		t.Errorf(":stats does not count the query: want %q in:\n%s", want, out)
	}
	if strings.Contains(out, "transport:") {
		t.Errorf(":stats still prints a transport line:\n%s", out)
	}

	// The span tree sits under the first answer only: the coordination
	// root, a lattice level with its fetch wave, and the final rank.
	first, rest, _ := strings.Cut(out[strings.Index(out, heads[0]):], heads[1])
	for _, span := range []string{"coordinate", "level", "fetch", "rank"} {
		if !strings.Contains(first, span) {
			t.Errorf("no %q span under the first answer:\n%s", span, first)
		}
	}
	if strings.Contains(rest, "coordinate") {
		t.Errorf("the cached answer carries a span tree:\n%s", rest)
	}

	// The reference: the corpus and configuration the shell builds,
	// indexed by a core.Engine over 3 in-process overlay peers.
	p := corpus.DefaultGenParams(60)
	p.AvgDocLen = 80
	col, err := corpus.Generate(p)
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
	cfg.DFMax = 12
	cfg.Window = 10
	net := overlay.NewNetwork(transport.NewInProc())
	for i := 0; i < 3; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	eng, err := core.NewEngine(net, cfg, col.Vocab, col.TermFrequencies())
	if err != nil {
		t.Fatal(err)
	}
	members := net.Members()
	for i, part := range col.SplitRoundRobin(3) {
		if _, err := eng.AddPeer(members[i], part); err != nil {
			t.Fatal(err)
		}
	}
	if err := eng.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	var q corpus.Query
	for _, term := range strings.Fields(query) {
		for id, s := range col.Vocab {
			if s == term {
				q.Terms = append(q.Terms, corpus.TermID(id))
			}
		}
	}
	res, err := eng.Search(q, members[0], 10)
	if err != nil {
		t.Fatal(err)
	}
	var ranked strings.Builder
	for i, r := range res.Results {
		fmt.Fprintf(&ranked, "\n%2d. doc %-6d score %.3f", i+1, r.Doc, r.Score)
	}
	if !strings.HasPrefix(first[len(heads[0]):], ranked.String()+"\n") {
		t.Errorf("ranked lines differ from the in-process engine's:\nwant%s\nin:\n%s", ranked.String(), first)
	}
	stats := eng.Stats()
	wantStats := fmt.Sprintf("keys by size: 1:%d 2:%d 3:%d | stored postings %d | inserted %d",
		stats.KeysBySize[1], stats.KeysBySize[2], stats.KeysBySize[3], stats.StoredTotal,
		eng.Metrics().Snapshot().CounterSum("hdk_build_inserted_postings_total"))
	if !strings.Contains(out, wantStats) {
		t.Errorf(":stats index figures differ from the in-process engine's: want %q in:\n%s", wantStats, out)
	}
}
