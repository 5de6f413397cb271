package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cache"
	"repro/internal/core"
	"repro/internal/durable"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/transport"
)

// One Go benchmark per layer, each fed with inputs captured from the
// seed-1 paper-mix pool, so that a regression in a layer can be located
// without a cluster. layers_test.go runs them under `go test -bench`, and
// -layers runs the same functions through testing.Benchmark.

// layerFixture is the captured input: per pool query, the posting lists a
// coordinator would union (each term's list, cut at DFmax as the store
// cuts it), their wire encodings, the union itself, and the fetchBatch
// request for the query's single-term keys with the in-process owner to
// send it to.
type layerFixture struct {
	in      *inputs
	lists   [][]postings.List
	encoded [][]byte
	unions  []postings.List
	fetches []fetchCall
	scratch string // directory the durable benchmarks write under
}

type fetchCall struct {
	addr string
	req  []byte
}

const layerQueries = 256

func newLayerFixture(scratch string) (*layerFixture, error) {
	in, err := makeInputs(1, false)
	if err != nil {
		return nil, err
	}
	fx := &layerFixture{in: in, scratch: scratch}
	net := in.ref.Network()
	for i, q := range in.pool[:layerQueries] {
		var lists []postings.List
		for _, t := range q.Terms {
			l := in.cen.PostingList(t)
			if len(l) > in.cfg.DFMax {
				l = l[:in.cfg.DFMax]
			}
			lists = append(lists, l)
			fx.encoded = append(fx.encoded, postings.Encode(nil, l))
		}
		fx.lists = append(fx.lists, lists)
		fx.unions = append(fx.unions, postings.UnionAll(lists))
		owner, ok := net.OwnerOf(in.terms[i][0])
		if !ok {
			return nil, fmt.Errorf("no owner for %q in the reference network", in.terms[i][0])
		}
		fx.fetches = append(fx.fetches, fetchCall{owner.Addr(), postings.EncodeKeyList(nil, in.terms[i][:1])})
	}
	return fx, nil
}

// sink keeps the compiler from dropping a benchmarked call.
var sink int

type layerBench struct {
	name string
	run  func(b *testing.B, fx *layerFixture)
}

var layerBenches = []layerBench{
	{"postings.UnionAll", func(b *testing.B, fx *layerFixture) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sink += len(postings.UnionAll(fx.lists[i%len(fx.lists)]))
		}
	}},
	{"postings.Decode", func(b *testing.B, fx *layerFixture) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			l, _, err := postings.Decode(fx.encoded[i%len(fx.encoded)])
			if err != nil {
				b.Fatal(err)
			}
			sink += len(l)
		}
	}},
	{"rank.TopKByScore", func(b *testing.B, fx *layerFixture) {
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			sink += len(rank.TopKByScore(fx.unions[i%len(fx.unions)], topK))
		}
	}},
	{"cache.LRU", func(b *testing.B, fx *layerFixture) {
		// Get, and Put on a miss, at capacity: the pool is ~8x the cache,
		// as on search.zipf.
		keys := make([]string, len(fx.in.terms))
		for i, t := range fx.in.terms {
			keys[i] = strings.Join(t, " ")
		}
		lru := cache.NewLRU[[]byte](zipfCache)
		z := newZipfSampler(len(keys), zipfS, 1)
		val := make([]byte, 256)
		b.ReportAllocs()
		for b.Loop() {
			k := keys[z.next()]
			if _, ok := lru.Get(k); !ok {
				lru.Put(k, val)
			}
		}
	}},
	{"core.Engine.Search/InProc", func(b *testing.B, fx *layerFixture) {
		origin := fx.in.ref.Network().Members()[0]
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			res, err := fx.in.ref.Search(fx.in.pool[i%layerQueries], origin, topK)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(res.Results)
		}
	}},
	{"core.fetchBatch/InProc", func(b *testing.B, fx *layerFixture) {
		net := fx.in.ref.Network()
		b.ReportAllocs()
		for i := 0; b.Loop(); i++ {
			f := fx.fetches[i%len(fx.fetches)]
			resp, err := net.CallService(f.addr, core.SvcFetchBatch, f.req)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(resp)
		}
	}},
	{"transport.TCP/roundtrip", func(b *testing.B, fx *layerFixture) {
		tr := transport.NewTCP()
		defer tr.Close()
		addr, err := tr.Listen("127.0.0.1:0", func(req []byte) ([]byte, error) { return req, nil })
		if err != nil {
			b.Fatal(err)
		}
		req := make([]byte, 64)
		b.ReportAllocs()
		for b.Loop() {
			resp, err := tr.Call(addr, req)
			if err != nil {
				b.Fatal(err)
			}
			sink += len(resp)
		}
	}},
	{"durable.Append/always", func(b *testing.B, fx *layerFixture) { benchAppend(b, fx, durable.SyncAlways) }},
	{"durable.Append/batch", func(b *testing.B, fx *layerFixture) { benchAppend(b, fx, durable.SyncBatch) }},
	{"durable.Append/never", func(b *testing.B, fx *layerFixture) { benchAppend(b, fx, durable.SyncNever) }},
}

// benchAppend times Store.Append of a 64-byte record, small so that a
// second of appends without fsync stays within some tens of megabytes.
func benchAppend(b *testing.B, fx *layerFixture, policy durable.Policy) {
	dir := filepath.Join(fx.scratch, "layer-durable")
	if err := os.RemoveAll(dir); err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dir)
	s, err := durable.Open(dir, durable.Options{Fsync: policy, CompactBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	payload := make([]byte, 64)
	b.ReportAllocs()
	for b.Loop() {
		if err := s.Append("op", payload); err != nil {
			b.Fatal(err)
		}
	}
}

// runLayerBenchmarks is -layers: every layer benchmark through
// testing.Benchmark, one line each.
func runLayerBenchmarks(w io.Writer, scratch string) error {
	fx, err := newLayerFixture(scratch)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%-28s %12s %12s %12s\n", "layer", "ns/op", "allocs/op", "B/op")
	for _, lb := range layerBenches {
		r := testing.Benchmark(func(b *testing.B) { lb.run(b, fx) })
		if r.N == 0 {
			return fmt.Errorf("layer benchmark %s failed", lb.name)
		}
		fmt.Fprintf(w, "%-28s %12.1f %12d %12d\n", lb.name, float64(r.T.Nanoseconds())/float64(r.N), r.AllocsPerOp(), r.AllocedBytesPerOp())
	}
	return nil
}
