package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// availScale is small enough for CI but large enough that a 20% crash at
// R=1 visibly loses results.
func availScale() Scale {
	s := SmallScale()
	s.Name = "avail-test"
	s.PeerSteps = []int{20}
	s.DocsPerPeer = 80
	s.NumQueries = 40
	s.MinHits = 1
	s.DFMaxes = []int{8}
	return s
}

// TestAvailabilityAcceptance is the issue's acceptance criterion: with
// R=3 and 20% of nodes crashed WITHOUT repair, recall@10 against the
// intact index stays >= 0.99 (served purely by surviving replicas),
// while R=1 measurably loses results; repair then restores full R-way
// coverage, verified by the store sweep — with no rebuild.
func TestAvailabilityAcceptance(t *testing.T) {
	rep, err := Availability(availScale(), []int{1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Killed < 4 {
		t.Fatalf("only %d nodes killed from %d — not the 20%% scenario", rep.Killed, rep.Peers)
	}
	if len(rep.Runs) != 2 {
		t.Fatalf("got %d runs, want 2", len(rep.Runs))
	}
	r1, r3 := rep.Runs[0], rep.Runs[1]
	if r1.Replicas != 1 || r3.Replicas != 3 {
		t.Fatalf("runs out of order: %+v", rep.Runs)
	}

	if r3.RecallAfterKill < 0.99 {
		t.Errorf("R=3 recall@%d after 20%% crash = %.4f, want >= 0.99", rep.TopK, r3.RecallAfterKill)
	}
	if r1.RecallAfterKill >= r3.RecallAfterKill {
		t.Errorf("R=1 recall %.4f not below R=3 recall %.4f — replication buys nothing?",
			r1.RecallAfterKill, r3.RecallAfterKill)
	}
	if r1.RecallAfterKill > 0.97 {
		t.Errorf("R=1 recall %.4f after 20%% crash — loss not measurable", r1.RecallAfterKill)
	}

	// Replication must actually cost 3x on the write path.
	if r3.InsertedPostings != 3*r1.InsertedPostings {
		t.Errorf("R=3 inserted %d postings, want exactly 3x the R=1 cost %d",
			r3.InsertedPostings, r1.InsertedPostings)
	}

	// The crash leaves holes in R=3 placement; repair closes all of them.
	if r3.UnderAfterKill == 0 {
		t.Error("R=3 crash left no under-replicated keys — scenario proves nothing")
	}
	if r3.CopiesRepaired == 0 {
		t.Error("R=3 repair shipped nothing")
	}
	if r3.UnderAfterRepair != 0 {
		t.Errorf("R=3 repair left %d keys under-replicated", r3.UnderAfterRepair)
	}
	if r3.RecallAfterRepair < r3.RecallAfterKill {
		t.Errorf("repair degraded recall: %.4f -> %.4f", r3.RecallAfterKill, r3.RecallAfterRepair)
	}

	// R=1 has nothing to fail over to and nothing to repair from.
	if r1.FailoversPerQuery != 0 {
		t.Errorf("R=1 recorded %.2f failovers/query — no replicas exist", r1.FailoversPerQuery)
	}
	if r1.RecallAfterRepair > r1.RecallAfterKill+1e-9 {
		t.Errorf("R=1 repair recovered recall %.4f -> %.4f from nowhere",
			r1.RecallAfterKill, r1.RecallAfterRepair)
	}
}

func TestAvailabilityRejectsBadParams(t *testing.T) {
	if _, err := Availability(availScale(), nil, nil); err == nil {
		t.Error("empty replica list accepted")
	}
}

func TestAvailabilityReportRenders(t *testing.T) {
	rep := &AvailabilityReport{
		Scale: "x", Peers: 10, Killed: 2, Queries: 5, TopK: 10, KillFrac: 0.2,
		Runs: []AvailabilityRun{{Replicas: 2, RecallAfterKill: 1}},
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if !strings.Contains(buf.String(), "recall@10") {
		t.Fatalf("report output missing recall header: %q", buf.String())
	}
}

func TestWriteJSONRoundTrip(t *testing.T) {
	r := runTiny(t)
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSON(path, BenchJSON(r)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("emitted JSON does not parse: %v", err)
	}
	if back.Scale.Name != r.Scale.Name || len(back.Steps) != len(r.Steps) {
		t.Fatalf("round trip lost data: %+v", back.Scale)
	}
	h := back.Steps[len(back.Steps)-1].HDK[0]
	if h.QueryRPCsBySize[1] <= 0 || h.QueryProbesBySize[1] <= 0 {
		t.Errorf("per-level counters missing from JSON: %+v", h)
	}
}
