package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

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
