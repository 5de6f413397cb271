package cluster

import (
	"sync"
	"testing"

	"repro/internal/overlay"
	"repro/internal/replica"
	"repro/internal/transport"
)

// midSweepInventory runs during once, on the sweep's first Keys call:
// a membership change that lands while a repair sweep is under way.
type midSweepInventory struct {
	replica.Inventory
	once   sync.Once
	during func()
}

func (m *midSweepInventory) Keys(mem overlay.Member) []string {
	m.once.Do(m.during)
	return m.Inventory.Keys(mem)
}

// TestSweepSettlesOnlyTheMembershipItSwept: a sweep computes its
// deficits over the members it saw when it started, so a crash that
// lands mid-sweep is not repaired by it — the debt that crash raised
// must survive the sweep's report, on the fabric and on every daemon.
func TestSweepSettlesOnlyTheMembershipItSwept(t *testing.T) {
	const peers, replicas = 5, 2
	col := testCollection(t, 60)
	cfg := testConfig(col, replicas)

	t.Run("in-process ring", func(t *testing.T) {
		eng := buildReferenceEngine(t, col, peers, cfg)
		members := eng.Network().Members()
		if err := eng.FailNode(members[1]); err != nil {
			t.Fatal(err)
		}
		rp := eng.Repairer()
		rp.Inv = &midSweepInventory{Inventory: rp.Inv, during: func() {
			if err := eng.FailNode(members[3]); err != nil {
				t.Error(err)
			}
		}}
		if _, err := rp.Repair(); err != nil {
			t.Fatal(err)
		}
		if !eng.Network().View().Owed() {
			t.Fatal("a sweep settled a crash that landed after it started")
		}
		if _, err := eng.RepairReplicas(); err != nil {
			t.Fatal(err)
		}
		if eng.Network().View().Owed() {
			t.Fatal("a complete sweep over the current membership left the debt owed")
		}
	})

	t.Run("cluster client and daemons", func(t *testing.T) {
		tr := transport.NewInProc()
		defer tr.Close()
		servers := startInProcServers(t, tr, peers, replicas)
		c, err := Dial(Options{Transport: tr, Seed: servers[0].Addr()})
		if err != nil {
			t.Fatal(err)
		}
		eng := buildClusterEngine(t, c, col, cfg)
		members := c.Members()
		crash := func(m overlay.Member) error {
			if err := eng.FailNode(m); err != nil {
				return err
			}
			return c.Forget(m.Addr())
		}
		if err := crash(members[1]); err != nil {
			t.Fatal(err)
		}
		rp := c.Repairer(replicas)
		rp.Inv = &midSweepInventory{Inventory: rp.Inv, during: func() {
			if err := crash(members[3]); err != nil {
				t.Error(err)
			}
		}}
		if _, err := rp.Repair(); err != nil {
			t.Fatal(err)
		}
		if !c.View().Owed() {
			t.Fatal("the client's view settled by a sweep that never saw its replica sets")
		}
		for _, m := range c.Members() {
			info, err := FetchInfo(tr, m.Addr())
			if err != nil {
				t.Fatal(err)
			}
			if !info.Unrepaired {
				t.Fatalf("%s settled by a sweep over a membership it no longer has", m.Addr())
			}
		}
		if _, err := c.Repairer(replicas).Repair(); err != nil {
			t.Fatal(err)
		}
		for _, m := range c.Members() {
			if info, err := FetchInfo(tr, m.Addr()); err != nil || info.Unrepaired {
				t.Fatalf("%s after a complete sweep: unrepaired=%t, %v", m.Addr(), info.Unrepaired, err)
			}
		}
	})
}
