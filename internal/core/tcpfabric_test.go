package core

import (
	"reflect"
	"testing"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/transport"
)

// TestEngineTransportAgnostic pins the deployment claim at the fabric
// level: the engine must produce the identical global index and ranked
// answers when every RPC travels through real loopback TCP sockets
// instead of in-process calls.
func TestEngineTransportAgnostic(t *testing.T) {
	if testing.Short() {
		t.Skip("binds dozens of sockets; skipped in -short mode")
	}
	col := testCollection(t, 60)
	cfg := testConfig(col, 6)

	ref := buildEngine(t, col, 4, cfg)
	if err := ref.BuildIndex(); err != nil {
		t.Fatal(err)
	}
	refOrigin := ref.net.Members()[0]

	t.Run("chord-over-tcp", func(t *testing.T) {
		tr := transport.NewTCP()
		defer tr.Close()
		fabric := overlay.NewNetwork(tr)
		for i := 0; i < 4; i++ {
			if _, err := fabric.AddNode("127.0.0.1:0"); err != nil {
				t.Fatal(err)
			}
		}
		eng, err := NewEngine(fabric, cfg, col.Vocab, col.TermFrequencies())
		if err != nil {
			t.Fatal(err)
		}
		members := fabric.Members()
		for i, part := range col.SplitRoundRobin(len(members)) {
			if _, err := eng.AddPeer(members[i], part); err != nil {
				t.Fatal(err)
			}
		}
		if err := eng.BuildIndex(); err != nil {
			t.Fatal(err)
		}
		assertEnginesEqual(t, eng, ref, cfg)

		origin := members[0]
		for i := 0; i < 10; i++ {
			q := corpus.Query{Terms: col.Docs[i].Terms[:2]}
			want, err := ref.Search(q, refOrigin, 15)
			if err != nil {
				t.Fatal(err)
			}
			got, err := eng.Search(q, origin, 15)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want.Results, got.Results) {
				t.Fatalf("query %d: results over TCP diverge from in-process", i)
			}
		}
	})
}
