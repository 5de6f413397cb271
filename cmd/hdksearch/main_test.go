package main

import (
	"fmt"
	"os"
	"os/exec"
	"strings"
	"testing"
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

// TestInProcessShell scripts the in-process shell end to end, with no
// daemon: 60 documents on 3 simulated peers, a query from the sample
// vocabulary, ":stats", ":doc 0" and ":quit". The shell must exit 0,
// report its index, rank an answer, and count in ":stats" exactly the
// lattice probes, fetch RPCs and levels the query reported.
func TestInProcessShell(t *testing.T) {
	cmd := exec.Command(os.Args[0], "-docs", "60", "-peers", "3")
	cmd.Env = append(os.Environ(), "HDKSEARCH_SHELL=1")
	cmd.Stdin = strings.NewReader("bi40 di41\n:stats\n:doc 0\n:quit\n")
	raw, err := cmd.CombinedOutput()
	out := string(raw)
	if err != nil {
		t.Fatalf("shell exited: %v\n%s", err, out)
	}
	if !strings.Contains(out, "\nindex ready: ") {
		t.Errorf("no index-ready line:\n%s", out)
	}
	var results, probed, found, posts, rpcs, levels int
	var head string
	for _, line := range strings.Split(out, "\n") {
		if h, ok := strings.CutPrefix(line, "> "); ok && strings.Contains(h, " results | probed ") {
			head = h
		}
	}
	if _, err := fmt.Sscanf(head, "%d results | probed %d keys, found %d, fetched %d postings | %d batched RPCs over %d levels",
		&results, &probed, &found, &posts, &rpcs, &levels); err != nil || results == 0 {
		t.Fatalf("no ranked answer (%v) in:\n%s", err, out)
	}
	if !strings.Contains(out, "\n 1. doc ") {
		t.Errorf("answer has no ranked list:\n%s", out)
	}
	want := fmt.Sprintf("queries: %d lattice probes answered by %d batched fetch RPCs over %d levels (0 replica failovers)", probed, rpcs, levels)
	if !strings.Contains(out, want) {
		t.Errorf(":stats does not count the query: want %q in:\n%s", want, out)
	}
	if strings.Contains(out, "transport:") {
		t.Errorf(":stats still prints a transport line:\n%s", out)
	}
}
