package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// This file holds the schedule the one scenario driver (drive) fires:
// an ordered list of timestamped actions. A chaos schedule is a pure
// function of its seed, so `hdkbench -chaos -seed N` replays a failing
// run exactly; the serving and ingest-resume scenarios write theirs as
// fixed sequences. Generation only emits schedules the cluster can
// absorb — one daemon down at a time, every kill paired with a restart,
// waves and repairs only on the full membership (an RPC to a dead
// address would abort the driver mid-action: a harness failure, not a
// finding), resizes never aimed at the down daemon — ending all alive.

// FaultOp is one kind of fault action in a schedule.
type FaultOp string

// The fault actions a schedule interleaves. Compaction has no op of its
// own: it is pressure-driven (the daemons run with a tiny
// -compact-bytes), so every wave's op-log growth forces generation
// rollovers that land inside whatever else the schedule is doing.
const (
	// OpKill SIGKILLs a daemon (Node); its data directory survives.
	OpKill FaultOp = "kill"
	// OpRestart warm-restarts the killed daemon (Node) from its data
	// directory on its original address and waits until it serves.
	OpRestart FaultOp = "restart"
	// OpWave stages the next document batch (Wave is the ordinal) on
	// every peer and runs BuildIndex, which indexes just that batch.
	OpWave FaultOp = "wave"
	// OpRepair runs a full replica repair sweep through the client.
	OpRepair FaultOp = "repair"
	// OpResize live-resizes one daemon's admission path (Workers/Queue)
	// over the cluster.searchconfig RPC.
	OpResize FaultOp = "resize"
	// OpForget removes the killed daemon (Node) from every membership
	// for good; the cluster then owes a repair.
	OpForget FaultOp = "forget"
	// OpIngest streams every member its shard over hdk.ingest. Node's
	// upload stops after killAfterChunks acked chunks; with Node -1 every
	// unfinished upload resumes and the daemons run the coordinated build.
	OpIngest FaultOp = "ingest"
)

// FaultAction is one timestamped step of a fault schedule.
type FaultAction struct {
	// Seq is the action's 0-based position; At is its offset from the
	// start (nanoseconds on the wire).
	Seq int           `json:"seq"`
	At  time.Duration `json:"at_nanos"`
	Op  FaultOp       `json:"op"`
	// Node is the target daemon index for kill/restart/forget/resize
	// and an interrupted ingest, -1 for cluster-wide actions.
	Node int `json:"node"`
	// Wave is the update-wave ordinal (OpWave only): a replay stages the
	// same document batches in the same order.
	Wave int `json:"wave,omitempty"`
	// Workers/Queue are the OpResize admission settings
	// (Server.ConfigureSearch semantics).
	Workers int `json:"workers,omitempty"`
	Queue   int `json:"queue,omitempty"`
}

// String renders one action for progress lines and phase labels.
func (a FaultAction) String() string {
	switch a.Op {
	case OpKill, OpRestart, OpForget, OpIngest:
		return fmt.Sprintf("%s(%d)", a.Op, a.Node)
	case OpWave:
		return fmt.Sprintf("wave(%d)", a.Wave)
	case OpResize:
		return fmt.Sprintf("resize(%d,w=%d,q=%d)", a.Node, a.Workers, a.Queue)
	default:
		return string(a.Op)
	}
}

// FaultSchedule is a complete, replayable fault schedule: the seed and
// node count that generated it plus the ordered action list — the
// artifact a failing chaos run serializes.
type FaultSchedule struct {
	Seed    uint64        `json:"seed"`
	Nodes   int           `json:"nodes"`
	Actions []FaultAction `json:"actions"`
}

// Count returns how many actions of the given op the schedule holds.
func (s FaultSchedule) Count(op FaultOp) int {
	n := 0
	for _, a := range s.Actions {
		if a.Op == op {
			n++
		}
	}
	return n
}

// Horizon returns the offset of the last action — the minimum workload
// runtime the schedule needs.
func (s FaultSchedule) Horizon() time.Duration {
	if len(s.Actions) == 0 {
		return 0
	}
	return s.Actions[len(s.Actions)-1].At
}

// Validate checks the invariants generation promises, which a replayed
// or hand-edited schedule could break and wedge the driver with (a wave
// against a dead daemon, a restart of a live one). A forgotten daemon is
// gone: no later action may name it, and no wave or upload may follow.
func (s FaultSchedule) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("experiments: schedule needs >= 2 nodes, got %d", s.Nodes)
	}
	down := -1
	gone := make([]bool, s.Nodes)
	forgot := false
	wave := 0
	last := time.Duration(-1)
	for i, a := range s.Actions {
		if a.Seq != i {
			return fmt.Errorf("experiments: action %d has seq %d", i, a.Seq)
		}
		if a.At < last {
			return fmt.Errorf("experiments: action %d at %v precedes %v", i, a.At, last)
		}
		last = a.At
		if a.Node < -1 || a.Node >= s.Nodes || (a.Node >= 0 && gone[a.Node]) {
			return fmt.Errorf("experiments: action %d names unavailable node %d", i, a.Node)
		}
		switch a.Op {
		case OpKill:
			if down >= 0 {
				return fmt.Errorf("experiments: action %d kills node %d while node %d is down", i, a.Node, down)
			}
			if a.Node < 0 {
				return fmt.Errorf("experiments: action %d kills out-of-range node %d", i, a.Node)
			}
			down = a.Node
		case OpRestart, OpForget:
			if a.Node != down || down < 0 {
				return fmt.Errorf("experiments: action %d %ss node %d, but down is %d", i, a.Op, a.Node, down)
			}
			if a.Op == OpForget {
				gone[a.Node], forgot = true, true
			}
			down = -1
		case OpWave, OpIngest:
			if down >= 0 || forgot {
				return fmt.Errorf("experiments: action %d runs %s while a node is down or forgotten", i, a)
			}
			if a.Op == OpWave {
				if a.Wave != wave {
					return fmt.Errorf("experiments: action %d has wave ordinal %d, want %d", i, a.Wave, wave)
				}
				wave++
			}
		case OpRepair:
			if down >= 0 {
				return fmt.Errorf("experiments: action %d repairs while node %d is down", i, down)
			}
		case OpResize:
			if a.Node < 0 || a.Node == down {
				return fmt.Errorf("experiments: action %d resizes unavailable node %d", i, a.Node)
			}
			if a.Workers < 1 || a.Queue < 0 {
				return fmt.Errorf("experiments: action %d has degenerate admission settings (w=%d q=%d)", i, a.Workers, a.Queue)
			}
		default:
			return fmt.Errorf("experiments: action %d has unknown op %q", i, a.Op)
		}
	}
	if down >= 0 {
		return fmt.Errorf("experiments: schedule ends with node %d down", down)
	}
	return nil
}

// validateFor is Validate plus the fleet check a replay needs: a
// schedule made for another number of daemons names daemons the fleet
// does not have, or leaves some of its daemons out.
func (s FaultSchedule) validateFor(nodes int) error {
	if s.Nodes != nodes {
		return fmt.Errorf("experiments: schedule is for %d nodes, the fleet has %d", s.Nodes, nodes)
	}
	return s.Validate()
}

// ScheduleOpts sizes a generated schedule: exact action budgets per op
// plus the gap range between consecutive actions. The zero value of any
// field selects the default.
type ScheduleOpts struct {
	Kills   int // SIGKILL+restart cycles
	Waves   int // incremental update waves
	Repairs int // replica repair sweeps
	Resizes int // live admission resizes
	// MinGap/MaxGap bound the spacing between consecutive actions; the
	// continuous query workload fills the gaps.
	MinGap, MaxGap time.Duration
}

// DefaultScheduleOpts is the CI chaos gate's budget: >= 3 kill/restart
// cycles and >= 2 waves, without stretching the job past its timeout.
func DefaultScheduleOpts() ScheduleOpts {
	return ScheduleOpts{
		Kills: 3, Waves: 2, Repairs: 1, Resizes: 2,
		MinGap: 150 * time.Millisecond, MaxGap: 450 * time.Millisecond,
	}
}

// schedStream is the fixed PCG stream constant: generation is a pure
// function of (seed, nodes, opts) on every platform and Go version
// (math/rand/v2's PCG is specified, unlike the global source).
const schedStream = 0x9e3779b97f4a7c15

// GenerateSchedule derives the fault schedule for a seed: a constrained
// random interleaving of the budgeted actions. Identical inputs yield
// byte-identical schedules — the replay contract `hdkbench -chaos -seed
// N` relies on. The generated schedule always passes Validate.
func GenerateSchedule(seed uint64, nodes int, o ScheduleOpts) FaultSchedule {
	d := DefaultScheduleOpts()
	budget := map[FaultOp]*int{OpKill: &o.Kills, OpWave: &o.Waves, OpRepair: &o.Repairs, OpResize: &o.Resizes}
	for op, def := range map[FaultOp]int{OpKill: d.Kills, OpWave: d.Waves, OpRepair: d.Repairs, OpResize: d.Resizes} {
		if *budget[op] <= 0 {
			*budget[op] = def
		}
	}
	if o.MinGap <= 0 {
		o.MinGap = d.MinGap
	}
	if o.MaxGap < o.MinGap {
		o.MaxGap = o.MinGap
	}
	r := rand.New(rand.NewPCG(seed, schedStream))
	s := FaultSchedule{Seed: seed, Nodes: nodes}
	at := time.Duration(0)
	down, wave := -1, 0
	for down >= 0 || o.Kills+o.Waves+o.Repairs+o.Resizes > 0 {
		// While a daemon is down only resizes (of live daemons) may
		// interleave before the restart; the restart is listed twice to
		// bias downtime windows short — the query workload, not the
		// schedule, is what dwells on the outage.
		var legal []FaultOp
		for _, op := range []FaultOp{OpKill, OpWave, OpRepair, OpResize} {
			if *budget[op] > 0 && (down < 0 || op == OpResize) {
				legal = append(legal, op)
			}
		}
		if down >= 0 {
			legal = append(legal, OpRestart, OpRestart)
		}
		a := FaultAction{Seq: len(s.Actions), Op: legal[r.IntN(len(legal))], Node: -1}
		if b, ok := budget[a.Op]; ok {
			*b--
		}
		switch a.Op {
		case OpKill:
			down = r.IntN(nodes)
			a.Node = down
		case OpRestart:
			a.Node, down = down, -1
		case OpWave:
			a.Wave = wave
			wave++
		case OpResize:
			for a.Node = r.IntN(nodes); a.Node == down; a.Node = r.IntN(nodes) {
			}
			a.Workers, a.Queue = 2+r.IntN(7), 8+r.IntN(25)
		}
		at += o.MinGap + time.Duration(r.Int64N(int64(o.MaxGap-o.MinGap)+1))
		a.At = at
		s.Actions = append(s.Actions, a)
	}
	return s
}
