package core

import (
	"fmt"
	"sync"
	"testing"

	"repro/internal/corpus"
	"repro/internal/rank"
)

// The build-path benchmarks: the key algebra, one peer's candidate
// generation per round, and one insert frame landing in a store. The
// fixture is the benchmark contract's corpus shape (bench/inputs.go:
// MediumScale by value — 3 peers x 1000 documents, R = 2) built once.

var sinkKey Key

func BenchmarkNewKey(b *testing.B) {
	terms := [8]corpus.TermID{917, 12, 40411, 12, 3, 29999, 512, 77}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		j := i & 3
		sinkKey = NewKey(terms[j], terms[j+1], terms[j+2])
	}
}

// buildFixture is a fully built 3-peer engine plus every hdk.insert frame
// its build shipped, in order.
type buildFixture struct {
	eng    *Engine
	frames []insertFrame
}

type insertFrame struct {
	to   string // owner address
	size int    // round (key size) the frame belongs to
	req  []byte
}

var fixtureOnce struct {
	sync.Once
	fx  *buildFixture
	err error
}

func mediumFixture(b *testing.B) *buildFixture {
	b.Helper()
	fixtureOnce.Do(func() {
		col, err := corpus.Generate(corpus.GenParams{
			NumDocs: 3000, VocabSize: 30000, AvgDocLen: 120,
			Skew: 1.05, NumTopics: 60, TopicTerms: 800, TopicMix: 0.4, Seed: 42,
		})
		if err != nil {
			fixtureOnce.err = err
			return
		}
		cfg := DefaultConfig(rank.CollectionStats{NumDocs: col.M(), AvgDocLen: col.AvgDocLen()})
		cfg.DFMax, cfg.Window, cfg.SMax, cfg.Ff = 40, 12, 3, 60000
		cfg.ReplicationFactor = 2
		fx := &buildFixture{eng: buildEngine(b, col, 3, cfg)}
		// Tap the insert service of every member: record the frame, then
		// serve it exactly as the engine's own registration does.
		for _, m := range fx.eng.net.Members() {
			addr, store := m.Addr(), fx.eng.stores[m.ID()].store
			m.Handle(SvcInsert, func(req []byte) ([]byte, error) {
				_, batch, err := decodeInsertReq(req)
				if err != nil {
					return nil, err
				}
				if len(batch) > 0 {
					fx.frames = append(fx.frames, insertFrame{to: addr, size: int(batch[0].Aux), req: req})
				}
				return storeInsert(store, req)
			})
		}
		fixtureOnce.err = fx.eng.BuildIndex()
		fixtureOnce.fx = fx
	})
	if fixtureOnce.err != nil {
		b.Fatal(fixtureOnce.err)
	}
	return fixtureOnce.fx
}

// BenchmarkPeerGenerate runs one peer's candidate generation for one
// round over its 1000-document shard, with the ND knowledge a finished
// build left behind (what rounds 2 and 3 expand from).
func BenchmarkPeerGenerate(b *testing.B) {
	fx := mediumFixture(b)
	p := fx.eng.peers[0]
	for size := 1; size <= 3; size++ {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.generate(size)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(p.docs)), "ns/doc")
		})
	}
}

// BenchmarkStoreInsertBatch lands one round-2 insert frame in a store
// that already holds the other two peers' contributions for the round —
// the merge-into-existing-entries case that dominates a build.
func BenchmarkStoreInsertBatch(b *testing.B) {
	fx := mediumFixture(b)
	var round []insertFrame
	for _, f := range fx.frames {
		if f.size == 2 && f.to == fx.frames[0].to {
			round = append(round, f)
		}
	}
	if len(round) != 3 {
		b.Fatalf("fixture shipped %d round-2 frames to %s, want 3", len(round), fx.frames[0].to)
	}
	cfg := fx.eng.cfg
	_, batch, _ := decodeInsertReq(round[2].req)
	posts := 0
	for _, m := range batch {
		posts += len(m.List)
	}
	b.ReportAllocs()
	b.SetBytes(int64(len(round[2].req)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		store := newHDKStore(&cfg)
		for _, f := range round[:2] {
			if _, err := storeInsert(store, f.req); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, err := storeInsert(store, round[2].req); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(len(batch)), "keys/op")
	b.ReportMetric(float64(posts), "postings/op")
}
