package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/corpus"
)

// TestStreamShardPartition pins the streamed build's shard iterator to
// the SplitRoundRobin placement the fat client and the in-process
// reference use: document j goes to member j%n, every document exactly
// once, and the advertised shard count matches the iteration — the
// invariants that make a streamed build bit-identical to a resident
// one.
func TestStreamShardPartition(t *testing.T) {
	col, err := corpus.Generate(corpus.GenParams{
		NumDocs: 53, VocabSize: 300, AvgDocLen: 20,
		Skew: 1.0, NumTopics: 4, TopicTerms: 40, TopicMix: 0.5, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range []int{1, 2, 5, 7} {
		seen := make(map[corpus.DocID]int)
		ref := col.SplitRoundRobin(n)
		for idx := 0; idx < n; idx++ {
			next, count := streamShard(col, idx, n)
			var docs []corpus.Document
			for {
				d, ok := next()
				if !ok {
					break
				}
				docs = append(docs, d)
				seen[d.ID]++
			}
			if len(docs) != count {
				t.Errorf("n=%d shard %d: advertised %d docs, iterated %d", n, idx, count, len(docs))
			}
			if len(docs) != len(ref[idx].Docs) {
				t.Errorf("n=%d shard %d: %d docs, SplitRoundRobin has %d", n, idx, len(docs), len(ref[idx].Docs))
				continue
			}
			for j, d := range docs {
				if d.ID != ref[idx].Docs[j].ID {
					t.Errorf("n=%d shard %d doc %d: ID %v, SplitRoundRobin has %v", n, idx, j, d.ID, ref[idx].Docs[j].ID)
					break
				}
			}
		}
		if len(seen) != len(col.Docs) {
			t.Errorf("n=%d: shards cover %d distinct docs, want %d", n, len(seen), len(col.Docs))
		}
		for id, c := range seen {
			if c != 1 {
				t.Errorf("n=%d: doc %v appears %d times across shards", n, id, c)
			}
		}
	}
}

// TestIngestResumeReportClean pins the durability gates' predicate: a
// mid-upload interruption, zero re-shipped acked chunks, a skip count
// exactly matching the durably acked prefix, exact build round series,
// bit-identical parity after the build, and a warm restart that
// restored keys without re-indexing, pulled nothing and left full
// coverage with bit-identical answers — any one failing must fail the
// gate, with one message naming it.
func TestIngestResumeReportClean(t *testing.T) {
	good := IngestResumeReport{KillAfterChunks: 5, ResumeSkipped: 5, VictimChunks: 9, Warm: true, RestoredKeys: 40}
	if !good.Clean() {
		t.Errorf("clean report judged dirty: %v", good.Failures())
	}
	cases := map[string]func(*IngestResumeReport){
		"re-shipped chunks":     func(r *IngestResumeReport) { r.ResumeResent = 1 },
		"skip mismatch":         func(r *IngestResumeReport) { r.ResumeSkipped = 4 },
		"not mid-upload":        func(r *IngestResumeReport) { r.VictimChunks = 5 },
		"round series":          func(r *IngestResumeReport) { r.RoundSeriesFault = "missing round 2" },
		"parity mismatch":       func(r *IngestResumeReport) { r.Mismatches = 1 },
		"post-restart mismatch": func(r *IngestResumeReport) { r.PostMismatches = 1 },
		"cold restart":          func(r *IngestResumeReport) { r.Warm = false },
		"nothing restored":      func(r *IngestResumeReport) { r.RestoredKeys = 0 },
		"re-indexed":            func(r *IngestResumeReport) { r.InsertRPCs = 1 },
		"stale catch-up":        func(r *IngestResumeReport) { r.CatchUpStale = 1 },
		"pulled catch-up":       func(r *IngestResumeReport) { r.CatchUpPulled = 1 },
		"under-replicated":      func(r *IngestResumeReport) { r.UnderAfterRestart = 1 },
	}
	for name, mutate := range cases {
		rep := good
		mutate(&rep)
		if f := rep.Failures(); len(f) != 1 || rep.Clean() {
			t.Errorf("%s: %d failures %q, want exactly one", name, len(f), f)
		}
	}
}

// TestBenchReportRoundTrip is the report.go contract: a sweep's
// BenchReport must survive WriteJSON + Unmarshal value-identically, and
// a report without steps must omit the section.
func TestBenchReportRoundTrip(t *testing.T) {
	full := BenchJSON(runTiny(t))
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := WriteJSON(path, full); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back BenchReport
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*full, back) {
		t.Fatalf("bench report round trip drifted:\n%+v\nvs\n%+v", *full, back)
	}

	empty, err := json.Marshal(&BenchReport{Scale: SmallScale()})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(empty, &m); err != nil {
		t.Fatal(err)
	}
	if _, present := m["steps"]; present {
		t.Error("empty bench report serialized the absent steps section")
	}
}
