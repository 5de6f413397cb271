package cluster

import (
	"reflect"
	"sort"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/overlay"
	"repro/internal/replica"
	"repro/internal/transport"
)

// serviceCounter is a client transport that counts the calls it carries
// per (service, member) and the payload bytes per service.
type serviceCounter struct {
	transport.Transport
	mu    sync.Mutex
	calls map[string]map[string]int // service -> addr -> calls
	bytes map[string]int
}

func (sc *serviceCounter) Call(addr string, req []byte) ([]byte, error) {
	resp, err := sc.Transport.Call(addr, req)
	if svc, _, derr := overlay.DecodeEnvelope(req); derr == nil {
		sc.mu.Lock()
		if sc.calls[svc] == nil {
			sc.calls[svc] = make(map[string]int)
		}
		sc.calls[svc][addr]++
		sc.bytes[svc] += len(req) + len(resp)
		sc.mu.Unlock()
	}
	return resp, err
}

// take returns what was counted since the last take and resets it.
func (sc *serviceCounter) take() (map[string]map[string]int, map[string]int) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	calls, bytes := sc.calls, sc.bytes
	sc.calls, sc.bytes = make(map[string]map[string]int), make(map[string]int)
	return calls, bytes
}

// exportRecorder is an Inventory that records which holders a sweep
// exported from.
type exportRecorder struct {
	replica.Inventory
	holders []string
}

func (e *exportRecorder) Export(m overlay.Member, keys []string) ([]replica.Item, error) {
	e.holders = append(e.holders, m.Addr())
	return e.Inventory.Export(m, keys)
}

// TestInventorySweepRPCs pins the wire cost of the replica sweep on 5
// in-process daemons at R = 3: an audit takes one hdk.census per member
// and nothing else; a repair after one forget adds one hdk.export per
// holder with deficits, one replica.repair per destination and one
// cluster.repaired per survivor; a catch-up on an intact store takes
// censuses only. Run with -v for the per-service calls and bytes.
func TestInventorySweepRPCs(t *testing.T) {
	const peers, replicas = 5, 3
	tr := transport.NewInProc()
	defer tr.Close()
	servers := startInProcServers(t, tr, peers, replicas)
	sc := &serviceCounter{Transport: tr}
	sc.take()
	c, err := Dial(Options{Transport: sc, Seed: servers[0].Addr()})
	if err != nil {
		t.Fatal(err)
	}
	col := testCollection(t, 150)
	eng := buildClusterEngine(t, c, col, testConfig(col, replicas))
	addrs := func(ms []overlay.Member) []string {
		out := make([]string, len(ms))
		for i, m := range ms {
			out[i] = m.Addr()
		}
		return out
	}
	// expect checks that the calls counted since the last take are
	// exactly one per listed member for every listed service, and no
	// other service.
	expect := func(what string, calls map[string]map[string]int, bytes map[string]int, want map[string][]string) {
		t.Helper()
		services := make([]string, 0, len(calls))
		for svc := range calls {
			services = append(services, svc)
		}
		sort.Strings(services)
		for _, svc := range services {
			n := 0
			for _, k := range calls[svc] {
				n += k
			}
			t.Logf("%s: %s %d calls, %d bytes", what, svc, n, bytes[svc])
			if _, ok := want[svc]; !ok {
				t.Errorf("%s sent %s %v, want none", what, svc, calls[svc])
			}
		}
		for svc, members := range want {
			wantPer := make(map[string]int, len(members))
			for _, a := range members {
				wantPer[a]++
			}
			if !reflect.DeepEqual(calls[svc], wantPer) {
				t.Errorf("%s: %s calls per member %v, want %v", what, svc, calls[svc], wantPer)
			}
		}
	}

	sc.take()
	audit, err := c.Audit(replicas)
	if err != nil || !audit.FullyReplicated() || audit.Keys == 0 {
		t.Fatalf("intact audit %+v, %v", audit, err)
	}
	calls, bytes := sc.take()
	expect("audit", calls, bytes, map[string][]string{core.SvcCensus: addrs(c.Members())})

	st, err := c.Repairer(replicas).CatchUp(c.Members()[0])
	if err != nil || st.UnderReplicated != 0 || st.CopiesSent != 0 {
		t.Fatalf("catch-up on an intact store: %+v, %v", st, err)
	}
	calls, bytes = sc.take()
	expect("catch-up", calls, bytes, map[string][]string{core.SvcCensus: addrs(c.Members())})

	victim := c.Members()[2]
	if err := eng.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Forget(victim.Addr()); err != nil {
		t.Fatal(err)
	}
	sc.take()
	survivors := addrs(c.Members())
	rp := c.Repairer(replicas)
	rec := &exportRecorder{Inventory: rp.Inv}
	rp.Inv = rec
	rst, err := rp.Repair()
	if err != nil {
		t.Fatal(err)
	}
	if rst.CopiesSent == 0 || len(rec.holders) == 0 {
		t.Fatalf("repair after a forget shipped nothing: %+v", rst)
	}
	calls, bytes = sc.take()
	// The batches' destinations are the sweep's choice; each gets one.
	var dests []string
	for a := range calls[replica.Service] {
		dests = append(dests, a)
	}
	if len(dests) != rst.RepairRPCs {
		t.Errorf("replica.repair reached %d members, stats say %d RPCs", len(dests), rst.RepairRPCs)
	}
	expect("repair", calls, bytes, map[string][]string{
		core.SvcCensus:  survivors,
		core.SvcExport:  rec.holders,
		replica.Service: dests,
		ctrlRepaired:    survivors,
	})
	if audit, err := c.Audit(replicas); err != nil || !audit.FullyReplicated() {
		t.Fatalf("audit after repair %+v, %v", audit, err)
	}
}
