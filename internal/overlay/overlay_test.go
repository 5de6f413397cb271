package overlay

import (
	"fmt"
	"testing"
	"testing/quick"

	"repro/internal/transport"
)

func buildNet(t *testing.T, n int) *Network {
	t.Helper()
	net := NewNetwork(transport.NewInProc())
	for i := 0; i < n; i++ {
		if _, err := net.AddNode(fmt.Sprintf("peer-%d", i)); err != nil {
			t.Fatal(err)
		}
	}
	return net
}

func TestHashKeyDeterministic(t *testing.T) {
	if HashKey("abc") != HashKey("abc") {
		t.Fatal("HashKey not deterministic")
	}
	if HashKey("abc") == HashKey("abd") {
		t.Fatal("suspicious collision")
	}
}

func TestJoinPreservesOwnership(t *testing.T) {
	// The paper's growth protocol: peers join in batches. Consistent
	// hashing moves a key only to a peer that just joined; every other
	// key keeps its owner.
	net := buildNet(t, 4)
	owners := func() []string {
		out := make([]string, 60)
		for i := range out {
			m, _ := net.OwnerOf(fmt.Sprintf("doc-%d", i))
			out[i] = m.Addr()
		}
		return out
	}
	before := owners()
	for round := 0; round < 3; round++ {
		joined := map[string]bool{}
		for i := 0; i < 4; i++ {
			n, err := net.AddNode(fmt.Sprintf("joiner-%d-%d", round, i))
			if err != nil {
				t.Fatal(err)
			}
			joined[n.Addr()] = true
		}
		after := owners()
		for i := range after {
			if after[i] != before[i] && !joined[after[i]] {
				t.Fatalf("join round %d moved doc-%d from %s to %s, not a joiner", round, i, before[i], after[i])
			}
		}
		before = after
	}
	if net.Size() != 16 {
		t.Fatalf("Size = %d, want 16", net.Size())
	}
}

func TestKeyDistributionRoughlyBalanced(t *testing.T) {
	net := buildNet(t, 16)
	counts := map[ID]int{}
	const keys = 20000
	for i := 0; i < keys; i++ {
		m, _ := net.OwnerOf(fmt.Sprintf("key:%d", i))
		counts[m.ID()]++
	}
	// Consistent hashing without virtual nodes is skewed, but every node
	// must own something and no node should own the majority.
	if len(counts) != 16 {
		t.Fatalf("only %d/16 nodes own keys", len(counts))
	}
	for id, c := range counts {
		if c > keys/2 {
			t.Errorf("node %x owns %d/%d keys", id, c, keys)
		}
	}
}

func TestServiceDispatch(t *testing.T) {
	net := buildNet(t, 4)
	target := net.Members()[2]
	target.Handle("echo", func(req []byte) ([]byte, error) {
		return append([]byte("svc:"), req...), nil
	})
	resp, err := net.CallService(target.Addr(), "echo", []byte("ping"))
	if err != nil {
		t.Fatal(err)
	}
	if string(resp) != "svc:ping" {
		t.Fatalf("resp = %q", resp)
	}
	if _, err := net.CallService(target.Addr(), "missing", nil); err == nil {
		t.Fatal("unknown service accepted")
	}
}

func TestEnvelopeRoundTrip(t *testing.T) {
	prop := func(service string, payload []byte) bool {
		s, p, err := DecodeEnvelope(EncodeEnvelope(service, payload))
		if err != nil {
			return false
		}
		if s != service || len(p) != len(payload) {
			return false
		}
		for i := range p {
			if p[i] != payload[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestEnvelopeCorrupt(t *testing.T) {
	if _, _, err := DecodeEnvelope([]byte{0xff}); err == nil {
		t.Error("truncated envelope accepted")
	}
	if _, _, err := DecodeEnvelope([]byte{10, 'a'}); err == nil {
		t.Error("short envelope accepted")
	}
}

func TestDuplicateNodeAddr(t *testing.T) {
	net := NewNetwork(transport.NewInProc())
	if _, err := net.AddNode("same"); err != nil {
		t.Fatal(err)
	}
	if _, err := net.AddNode("same"); err == nil {
		t.Fatal("duplicate address accepted")
	}
}

func TestOverlayOverTCP(t *testing.T) {
	// The same overlay code must run over the real TCP transport: a
	// key's owner, resolved from the view, answers its services.
	tr := transport.NewTCP()
	defer tr.Close()
	net := NewNetwork(tr)
	for i := 0; i < 4; i++ {
		n, err := net.AddNode("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		n.Handle("whoami", func([]byte) ([]byte, error) { return []byte(n.Addr()), nil })
	}
	for i := 0; i < 20; i++ {
		owner, ok := net.OwnerOf(fmt.Sprintf("tcp-key-%d", i))
		if !ok {
			t.Fatal("no owner on a 4-node ring")
		}
		resp, err := net.CallService(owner.Addr(), "whoami", nil)
		if err != nil {
			t.Fatal(err)
		}
		if string(resp) != owner.Addr() {
			t.Fatalf("call to owner %s answered by %s", owner.Addr(), resp)
		}
	}
}
