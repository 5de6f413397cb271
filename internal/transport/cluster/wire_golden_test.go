package cluster

import (
	"sync"
	"testing"

	"repro/internal/overlay"
	"repro/internal/transport"
)

// repairedRecorder is a client transport that keeps every
// cluster.repaired payload it carries.
type repairedRecorder struct {
	transport.Transport
	mu   sync.Mutex
	sent []string
}

func (r *repairedRecorder) Call(addr string, req []byte) ([]byte, error) {
	if svc, payload, err := overlay.DecodeEnvelope(req); err == nil && svc == ctrlRepaired {
		r.mu.Lock()
		r.sent = append(r.sent, string(payload))
		r.mu.Unlock()
	}
	return r.Transport.Call(addr, req)
}

// take returns the payloads recorded since the last take.
func (r *repairedRecorder) take() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	sent := r.sent
	r.sent = nil
	return sent
}

// TestMembershipWireGolden pins the membership control-plane bytes for a
// fixed 5-member view, owed and settled: the cluster.members and
// cluster.join answers ({members, unrepaired}, addresses sorted) and the
// cluster.repaired notice a sweep sends (the swept addresses, ring order).
// Joiners, dialing clients and daemons of other versions parse these.
func TestMembershipWireGolden(t *testing.T) {
	const (
		members5 = `["node-0","node-1","node-2","node-3","node-4"]`
		owed     = `{"members":` + members5 + `,"unrepaired":true}`
		settled  = `{"members":` + members5 + `}`
		repaired = `["node-4","node-3","node-2","node-0","node-1"]`
	)
	tr := transport.NewInProc()
	defer tr.Close()
	startInProcServers(t, tr, 6, 2)
	rec := &repairedRecorder{Transport: tr}
	c, err := Dial(Options{Transport: rec, Seed: "node-0"})
	if err != nil {
		t.Fatal(err)
	}
	col := testCollection(t, 60)
	eng := buildClusterEngine(t, c, col, testConfig(col, 2))
	var victim overlay.Member
	for _, m := range c.Members() {
		if m.Addr() == "node-5" {
			victim = m
		}
	}
	if err := eng.FailNode(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.Forget("node-5"); err != nil {
		t.Fatal(err)
	}
	ctrl := func(service, payload string) string {
		t.Helper()
		raw, err := transport.CallRetry(tr, "node-0", overlay.EncodeEnvelope(service, []byte(payload)), maxTransientRetries)
		if err != nil {
			t.Fatal(err)
		}
		return string(raw)
	}
	wantWire := func(when, want string) {
		t.Helper()
		if got := ctrl(ctrlMembers, ""); got != want {
			t.Fatalf("%s: cluster.members = %s, want %s", when, got, want)
		}
		// A member re-joining (a warm restart on its old address) leaves
		// the view as it is and gets it back.
		if got := ctrl(ctrlJoin, "node-4"); got != want {
			t.Fatalf("%s: cluster.join = %s, want %s", when, got, want)
		}
	}
	wantNotices := func(when string, sent []string) {
		t.Helper()
		if len(sent) != 5 {
			t.Fatalf("%s sent %d cluster.repaired notices, want one per member (5)", when, len(sent))
		}
		for _, got := range sent {
			if got != repaired {
				t.Fatalf("%s: cluster.repaired = %s, want %s", when, got, repaired)
			}
		}
	}
	if sent := rec.take(); len(sent) != 0 {
		t.Fatalf("cluster.repaired sent before any sweep: %v", sent)
	}
	wantWire("owed", owed)

	if _, err := eng.RepairReplicas(); err != nil {
		t.Fatal(err)
	}
	wantNotices("sweep", rec.take())
	wantWire("settled", settled)

	// A forget from a repaired client re-sends its membership.
	if err := c.Forget("node-5"); err != nil {
		t.Fatal(err)
	}
	wantNotices("forget", rec.take())
	wantWire("settled, re-forgotten", settled)
}
