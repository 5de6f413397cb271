package experiments

import (
	"os"
	"testing"

	"repro/internal/transport"
	"repro/internal/transport/cluster"
)

// TestTCPServeE2E boots a real 5-process hdknode cluster on localhost
// and runs the deployment and serving scenario: a build over pooled
// TCP; every daemon coordinates queries (hdk.search) bit-identically
// to the in-process and client-fabric engines; repeat queries are
// served from the result caches with zero fetch RPCs; an incremental
// update invalidates every cache; after the owner of a probed key is
// SIGKILLed, coordination and the client fabric keep answering through
// replica failover with zero recall loss at R=3; once the dead member
// is forgotten every survivor still coordinates bit-identically, and a
// repair sweep restores full coverage. This is a CI cluster-e2e gate.
func TestTCPServeE2E(t *testing.T) {
	bin := hdknodeBin(t)
	opts := DefaultTCPServeOpts()

	h := &cluster.Harness{Bin: bin, Stderr: os.Stderr}
	if err := h.Start(opts.Nodes, opts.Replicas); err != nil {
		t.Fatal(err)
	}
	defer h.Stop()

	tr := transport.NewTCP()
	defer tr.Close()
	rep, err := TCPServe(tr, h.Addrs(), h.Kill, opts, t.Logf)
	if err != nil {
		t.Fatal(err)
	}
	rep.Fprint(os.Stderr)
	failOn(t, rep.Failures())
}
