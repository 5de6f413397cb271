package experiments

import (
	"fmt"
	"math/rand/v2"
	"time"
)

// This file implements the fault-schedule engine behind the chaos
// scenario: a schedule is a FIRST-CLASS VALUE — an ordered list of
// timestamped fault actions that is a pure function of a seed — so a
// failing chaos run is replayed exactly by re-running the same seed
// (`hdkbench -chaos -seed N`), and CI failure artifacts carry the
// serialized schedule next to the node logs. Generation is a small
// state machine that only ever emits schedules the cluster can actually
// absorb: at most one daemon down at a time, every kill paired with a
// restart of the same daemon, update waves and repair sweeps only while
// the full membership is serving (an insert or inventory RPC against a
// dead address would abort the driver mid-action, which is a harness
// failure, not a finding), and admission resizes never aimed at the
// daemon that is currently down. Every schedule ends with the full
// cluster alive, so the post-chaos parity and replication audits always
// run against complete membership.

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
	// OpWave stages the next incremental document batch on every peer
	// and runs BuildIndex on the live cluster, which indexes just the
	// staged documents (Wave is the ordinal).
	OpWave FaultOp = "wave"
	// OpRepair runs a full replica repair sweep through the client.
	OpRepair FaultOp = "repair"
	// OpResize live-resizes one daemon's admission path (Workers/Queue)
	// over the cluster.searchconfig RPC.
	OpResize FaultOp = "resize"
)

// FaultAction is one timestamped step of a fault schedule.
type FaultAction struct {
	// Seq is the action's position in the schedule (0-based).
	Seq int `json:"seq"`
	// At is the offset from workload start at which the driver fires
	// the action (nanoseconds on the wire).
	At time.Duration `json:"at_nanos"`
	// Op is the action kind.
	Op FaultOp `json:"op"`
	// Node is the target daemon index for kill/restart/resize, -1 for
	// cluster-wide actions (wave, repair).
	Node int `json:"node"`
	// Wave is the update-wave ordinal (OpWave only), so the driver and
	// a replay stage exactly the same document batches in the same
	// order.
	Wave int `json:"wave,omitempty"`
	// Workers/Queue are the OpResize admission settings
	// (Server.ConfigureSearch semantics).
	Workers int `json:"workers,omitempty"`
	Queue   int `json:"queue,omitempty"`
}

// String renders one action for progress lines and phase labels.
func (a FaultAction) String() string {
	switch a.Op {
	case OpKill, OpRestart:
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
// node count that generated it plus the ordered action list. It is the
// artifact a failing chaos run serializes (WriteJSON) so CI failures
// reproduce locally from the seed alone.
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

// Validate checks the structural invariants generation promises: a
// replayed or hand-edited schedule that violates them would wedge the
// driver (an update wave against a dead daemon, a restart of a live
// one), so the driver refuses it up front.
func (s FaultSchedule) Validate() error {
	if s.Nodes < 2 {
		return fmt.Errorf("experiments: schedule needs >= 2 nodes, got %d", s.Nodes)
	}
	down := -1
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
		switch a.Op {
		case OpKill:
			if down >= 0 {
				return fmt.Errorf("experiments: action %d kills node %d while node %d is down", i, a.Node, down)
			}
			if a.Node < 0 || a.Node >= s.Nodes {
				return fmt.Errorf("experiments: action %d kills out-of-range node %d", i, a.Node)
			}
			down = a.Node
		case OpRestart:
			if a.Node != down {
				return fmt.Errorf("experiments: action %d restarts node %d, but down is %d", i, a.Node, down)
			}
			down = -1
		case OpWave:
			if down >= 0 {
				return fmt.Errorf("experiments: action %d runs a wave while node %d is down", i, down)
			}
			if a.Wave != wave {
				return fmt.Errorf("experiments: action %d has wave ordinal %d, want %d", i, a.Wave, wave)
			}
			wave++
		case OpRepair:
			if down >= 0 {
				return fmt.Errorf("experiments: action %d repairs while node %d is down", i, down)
			}
		case OpResize:
			if a.Node < 0 || a.Node >= s.Nodes || a.Node == down {
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

// DefaultScheduleOpts is the CI chaos gate's budget: enough cycles of
// each fault class to satisfy the scenario's compound-coverage gates
// (>= 3 kill/restart cycles, >= 2 update waves) without stretching the
// job past its timeout.
func DefaultScheduleOpts() ScheduleOpts {
	return ScheduleOpts{
		Kills: 3, Waves: 2, Repairs: 1, Resizes: 2,
		MinGap: 150 * time.Millisecond, MaxGap: 450 * time.Millisecond,
	}
}

// schedStream is the fixed PCG stream constant: schedule generation is
// a pure function of (seed, nodes, opts) and nothing else, on every
// platform and Go version (math/rand/v2's PCG is specified, unlike the
// global source).
const schedStream = 0x9e3779b97f4a7c15

// GenerateSchedule derives the fault schedule for a seed: a constrained
// random interleaving of the budgeted actions. Identical inputs yield
// byte-identical schedules — the replay contract `hdkbench -chaos -seed
// N` relies on. The generated schedule always passes Validate.
func GenerateSchedule(seed uint64, nodes int, o ScheduleOpts) FaultSchedule {
	d := DefaultScheduleOpts()
	if o.Kills <= 0 {
		o.Kills = d.Kills
	}
	if o.Waves <= 0 {
		o.Waves = d.Waves
	}
	if o.Repairs <= 0 {
		o.Repairs = d.Repairs
	}
	if o.Resizes <= 0 {
		o.Resizes = d.Resizes
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
	emit := func(a FaultAction) {
		at += o.MinGap + time.Duration(r.Int64N(int64(o.MaxGap-o.MinGap)+1))
		a.Seq = len(s.Actions)
		a.At = at
		s.Actions = append(s.Actions, a)
	}
	down := -1
	wave := 0
	for o.Kills > 0 || o.Waves > 0 || o.Repairs > 0 || o.Resizes > 0 || down >= 0 {
		var legal []FaultOp
		if down >= 0 {
			// While a daemon is down only admission resizes (of live
			// daemons) may interleave before the restart; the restart is
			// listed twice to bias downtime windows short — the query
			// workload, not the schedule, is what dwells on the outage.
			if o.Resizes > 0 {
				legal = append(legal, OpResize)
			}
			legal = append(legal, OpRestart, OpRestart)
		} else {
			if o.Kills > 0 {
				legal = append(legal, OpKill)
			}
			if o.Waves > 0 {
				legal = append(legal, OpWave)
			}
			if o.Repairs > 0 {
				legal = append(legal, OpRepair)
			}
			if o.Resizes > 0 {
				legal = append(legal, OpResize)
			}
		}
		switch op := legal[r.IntN(len(legal))]; op {
		case OpKill:
			o.Kills--
			down = r.IntN(nodes)
			emit(FaultAction{Op: OpKill, Node: down})
		case OpRestart:
			emit(FaultAction{Op: OpRestart, Node: down})
			down = -1
		case OpWave:
			o.Waves--
			emit(FaultAction{Op: OpWave, Node: -1, Wave: wave})
			wave++
		case OpRepair:
			o.Repairs--
			emit(FaultAction{Op: OpRepair, Node: -1})
		case OpResize:
			o.Resizes--
			target := r.IntN(nodes)
			for target == down {
				target = r.IntN(nodes)
			}
			emit(FaultAction{
				Op: OpResize, Node: target,
				Workers: 2 + r.IntN(7), Queue: 8 + r.IntN(25),
			})
		}
	}
	return s
}
