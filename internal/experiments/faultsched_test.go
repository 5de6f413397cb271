package experiments

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"
)

// TestScheduleDeterministicReplay is the replay contract: the same
// (seed, nodes, opts) must yield a byte-identical schedule — that is
// what makes `CHAOS_REPLAY=N` reproduce a CI failure exactly.
func TestScheduleDeterministicReplay(t *testing.T) {
	opts := DefaultScheduleOpts()
	a := GenerateSchedule(42, 5, opts)
	b := GenerateSchedule(42, 5, opts)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different schedules:\n%+v\nvs\n%+v", a, b)
	}
	aj, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	bj, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(aj) != string(bj) {
		t.Fatalf("same seed produced different serialized schedules:\n%s\nvs\n%s", aj, bj)
	}
}

// TestScheduleSeedShiftsInterleaving: a different seed must change the
// interleaving — otherwise the seed knob explores nothing.
func TestScheduleSeedShiftsInterleaving(t *testing.T) {
	opts := DefaultScheduleOpts()
	a := GenerateSchedule(42, 5, opts)
	b := GenerateSchedule(43, 5, opts)
	if reflect.DeepEqual(a.Actions, b.Actions) {
		t.Fatalf("seeds 42 and 43 produced identical action lists: %+v", a.Actions)
	}
}

// TestScheduleInvariants sweeps seeds and checks every generated
// schedule honors the budgets and the structural constraints Validate
// encodes (one daemon down at a time, waves/repairs only on full
// membership, ends all-alive).
func TestScheduleInvariants(t *testing.T) {
	opts := ScheduleOpts{Kills: 3, Waves: 2, Repairs: 1, Resizes: 2}
	for seed := uint64(0); seed < 64; seed++ {
		s := GenerateSchedule(seed, 5, opts)
		if err := s.Validate(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if got := s.Count(OpKill); got != opts.Kills {
			t.Fatalf("seed %d: %d kills, want %d", seed, got, opts.Kills)
		}
		if got := s.Count(OpRestart); got != opts.Kills {
			t.Fatalf("seed %d: %d restarts, want %d", seed, got, opts.Kills)
		}
		if got := s.Count(OpWave); got != opts.Waves {
			t.Fatalf("seed %d: %d waves, want %d", seed, got, opts.Waves)
		}
		if got := s.Count(OpRepair); got != opts.Repairs {
			t.Fatalf("seed %d: %d repairs, want %d", seed, got, opts.Repairs)
		}
		if got := s.Count(OpResize); got != opts.Resizes {
			t.Fatalf("seed %d: %d resizes, want %d", seed, got, opts.Resizes)
		}
		if s.Horizon() <= 0 {
			t.Fatalf("seed %d: empty horizon", seed)
		}
	}
}

// TestScheduleValidateRejects: hand-broken schedules must be refused —
// the driver trusts Validate before firing a replayed schedule.
func TestScheduleValidateRejects(t *testing.T) {
	base := GenerateSchedule(7, 5, DefaultScheduleOpts())
	if err := base.Validate(); err != nil {
		t.Fatal(err)
	}
	breakages := map[string]func(s *FaultSchedule){
		"double kill": func(s *FaultSchedule) {
			s.Actions = []FaultAction{
				{Seq: 0, At: time.Millisecond, Op: OpKill, Node: 0},
				{Seq: 1, At: 2 * time.Millisecond, Op: OpKill, Node: 1},
			}
		},
		"wave while down": func(s *FaultSchedule) {
			s.Actions = []FaultAction{
				{Seq: 0, At: time.Millisecond, Op: OpKill, Node: 0},
				{Seq: 1, At: 2 * time.Millisecond, Op: OpWave, Node: -1},
			}
		},
		"repair while down": func(s *FaultSchedule) {
			s.Actions = []FaultAction{
				{Seq: 0, At: time.Millisecond, Op: OpKill, Node: 0},
				{Seq: 1, At: 2 * time.Millisecond, Op: OpRepair, Node: -1},
			}
		},
		"restart of live node": func(s *FaultSchedule) {
			s.Actions = []FaultAction{{Seq: 0, At: time.Millisecond, Op: OpRestart, Node: 0}}
		},
		"resize of down node": func(s *FaultSchedule) {
			s.Actions = []FaultAction{
				{Seq: 0, At: time.Millisecond, Op: OpKill, Node: 2},
				{Seq: 1, At: 2 * time.Millisecond, Op: OpResize, Node: 2, Workers: 2, Queue: 8},
			}
		},
		"ends down": func(s *FaultSchedule) {
			s.Actions = []FaultAction{{Seq: 0, At: time.Millisecond, Op: OpKill, Node: 0}}
		},
		"time goes backwards": func(s *FaultSchedule) {
			s.Actions = []FaultAction{
				{Seq: 0, At: 5 * time.Millisecond, Op: OpWave, Node: -1},
				{Seq: 1, At: time.Millisecond, Op: OpRepair, Node: -1},
			}
		},
		"wave ordinal gap": func(s *FaultSchedule) {
			s.Actions = []FaultAction{{Seq: 0, At: time.Millisecond, Op: OpWave, Node: -1, Wave: 1}}
		},
	}
	for name, breakit := range breakages {
		s := FaultSchedule{Seed: base.Seed, Nodes: base.Nodes}
		breakit(&s)
		if err := s.Validate(); err == nil {
			t.Errorf("%s: Validate accepted a broken schedule", name)
		}
	}
}

// TestScheduleArtifactRoundTrip is the failure-artifact path: a
// schedule written with WriteJSON (what the e2e test uploads on
// failure) must decode back to the identical value, so the serialized
// artifact alone suffices to re-run the exact action list.
func TestScheduleArtifactRoundTrip(t *testing.T) {
	s := GenerateSchedule(99, 5, DefaultScheduleOpts())
	path := filepath.Join(t.TempDir(), "fault-schedule.json")
	if err := WriteJSON(path, s); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back FaultSchedule
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s, back) {
		t.Fatalf("artifact round trip drifted:\n%+v\nvs\n%+v", s, back)
	}
	if err := back.Validate(); err != nil {
		t.Fatalf("round-tripped schedule invalid: %v", err)
	}
}

// TestScheduleArtifactsReplay dry-runs the schedule artifacts a chaos
// and a soak run wrote before the scenarios shared one driver: each must
// decode, validate, still be what its seed generates, and fire through
// drive against a 5-daemon fleet with stub actions — every action once,
// in order, after a wait for its offset, with a point before, between
// and after them. A fleet of another size is refused by name.
func TestScheduleArtifactsReplay(t *testing.T) {
	for name, o := range map[string]ScheduleOpts{"chaos": DefaultScheduleOpts(), "soak": DefaultSoakOpts().Schedule} {
		raw, err := os.ReadFile(filepath.Join("testdata", name+"-schedule.json"))
		if err != nil {
			t.Fatal(err)
		}
		var s FaultSchedule
		if err := json.Unmarshal(raw, &s); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !reflect.DeepEqual(s, GenerateSchedule(s.Seed, s.Nodes, o)) {
			t.Errorf("%s: seed %d no longer generates the committed schedule", name, s.Seed)
		}
		var fired []FaultAction
		var waits []time.Duration
		points := 0
		err = drive(s, DefaultClusterOpts().Nodes,
			func(a FaultAction) error { fired = append(fired, a); return nil },
			func(d time.Duration) { waits = append(waits, d) },
			func(p int) error { points += p; return nil })
		if err != nil || !reflect.DeepEqual(fired, s.Actions) || points != len(s.Actions)*(len(s.Actions)+1)/2 {
			t.Errorf("%s: dry run err %v, fired %d of %d actions, points summing to %d", name, err, len(fired), len(s.Actions), points)
		}
		for i, d := range waits {
			if at := s.Actions[i].At; d > at || d < at-time.Second {
				t.Errorf("%s: action %d at %v waited %v", name, i, at, d)
			}
		}
		// Point p+1 is the window action p opened: from a kill(n) on, n is
		// down, and it stays down through the restart(n) window.
		pts := schedulePoints(s)
		if len(pts) != len(s.Actions)+1 || pts[0].Label != "start" || pts[0].Down != nil || pts[len(s.Actions)].Label != "drain" {
			t.Errorf("%s: %d points for %d actions, first %+v, last %+v", name, len(pts), len(s.Actions), pts[0], pts[len(pts)-1])
		}
		kills := 0
		for i, a := range s.Actions {
			if a.Op != OpKill {
				continue
			}
			kills++
			r := slices.IndexFunc(s.Actions[i:], func(b FaultAction) bool { return b.Op == OpRestart && b.Node == a.Node })
			if r < 0 {
				t.Fatalf("%s: %s is never restarted", name, a)
			}
			if pts[i+1].Label != a.String() {
				t.Errorf("%s: the window after %s is labelled %q", name, a, pts[i+1].Label)
			}
			for p := i + 1; p <= i+r+1; p++ {
				if !slices.Equal(pts[p].Down, []int{a.Node}) {
					t.Errorf("%s: point %d (%s) from %s through its restart lists %v down", name, p, pts[p].Label, a, pts[p].Down)
				}
			}
			if p := i + r + 2; p < len(pts) && slices.Contains(pts[p].Down, a.Node) {
				t.Errorf("%s: point %d after restart(%d) lists %v down", name, p, a.Node, pts[p].Down)
			}
		}
		if kills != o.Kills {
			t.Errorf("%s: checked %d kill windows, the schedule budgets %d", name, kills, o.Kills)
		}
		if err := drive(s, 7, nil, nil, nil); err == nil || !strings.Contains(err.Error(), "schedule is for 5 nodes, the fleet has 7") {
			t.Errorf("%s: a 7-daemon fleet accepted the schedule: %v", name, err)
		}
	}
}

// TestSchedulePointsForget: TCPServe's kill(n) then forget(n) lists n
// down only in the kill window; forget ends it, as in Validate.
func TestSchedulePointsForget(t *testing.T) {
	s := serveSchedule(5, 2)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	got := schedulePoints(s)
	want := []schedPoint{
		{Label: "start"},
		{Label: s.Actions[0].String()},
		{Label: s.Actions[1].String(), Down: []int{2}},
		{Label: s.Actions[2].String()},
		{Label: "drain"},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("points %+v, want %+v", got, want)
	}
}
