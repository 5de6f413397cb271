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

// TestIngestResumeReportClean pins the resume gate's predicate: zero
// re-shipped acked chunks, a skip count exactly matching the durably
// acked prefix, and bit-identical parity — any one failing must fail
// the gate.
func TestIngestResumeReportClean(t *testing.T) {
	good := IngestResumeReport{KillAfterChunks: 5, ResumeSkipped: 5}
	if !good.Clean() {
		t.Error("clean report judged dirty")
	}
	cases := map[string]IngestResumeReport{
		"re-shipped chunks": {KillAfterChunks: 5, ResumeSkipped: 5, ResumeResent: 1},
		"skip mismatch":     {KillAfterChunks: 5, ResumeSkipped: 4},
		"parity mismatch":   {KillAfterChunks: 5, ResumeSkipped: 5, Mismatches: 1},
	}
	for name, rep := range cases {
		if rep.Clean() {
			t.Errorf("%s: dirty report judged clean", name)
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
