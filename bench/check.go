package main

import (
	"fmt"
	"reflect"

	"repro/internal/core"
	"repro/internal/rank"
	"repro/internal/transport/cluster"
)

// serialFigures come from one serial, uncached pass over the pool: they
// are counts and a quality ratio, so for one seed they repeat exactly.
type serialFigures struct {
	postingsPerQuery float64 // mean SearchResult.FetchedPosts: the paper's retrieval-traffic figure
	overlapAt10      float64 // mean rank.Overlap against centralized BM25, as a ratio: the paper's quality figure
	probesPerQuery   float64
	fetchRPCs        float64
	rounds           float64
	failovers        int
	storedPerDoc     float64 // resident postings, replicas included, per document: the paper's storage figure
}

// checkCluster is the correctness check that runs before any timing. Every
// query of the pool must come back from the daemons bit-identical to the
// in-process reference engine's answer, through each coordinator in
// turn; on a cached workload the cached answer must equal the uncached
// one; and the cluster must hold exactly the postings the reference
// holds.
func checkCluster(c *cluster.Client, addrs []string, w workload, in *inputs) (serialFigures, error) {
	var fig serialFigures
	origin := in.ref.Network().Members()[0]
	for i := 0; i < len(in.pool); i++ {
		want, err := in.ref.Search(in.pool[i], origin, topK)
		if err != nil {
			return fig, fmt.Errorf("reference query %d: %w", i, err)
		}
		addr := addrs[i%len(addrs)]
		req := core.SearchRequest{Terms: in.terms[i], K: topK, NoCache: true}
		got, cached, err := c.TrySearchVia(addr, req)
		if err != nil {
			return fig, fmt.Errorf("query %d: %w", i, err)
		}
		if cached {
			return fig, fmt.Errorf("query %d: a NoCache request was answered from the result cache", i)
		}
		if !reflect.DeepEqual(want.Results, got.Results) {
			return fig, fmt.Errorf("query %d %v via %s: ranked results differ from the in-process reference", i, in.terms[i], addr)
		}
		if !w.noCache {
			// Ask twice with the cache on: the first fills it (or already
			// hits), the second must hit, and both must equal the
			// uncached answer.
			req.NoCache = false
			for pass := 0; pass < 2; pass++ {
				viaCache, hit, err := c.TrySearchVia(addr, req)
				if err != nil {
					return fig, fmt.Errorf("query %d (cached): %w", i, err)
				}
				if pass == 1 && !hit {
					return fig, fmt.Errorf("query %d: an immediate repeat missed the result cache", i)
				}
				if !reflect.DeepEqual(got.Results, viaCache.Results) {
					return fig, fmt.Errorf("query %d: cached answer differs from the uncached one", i)
				}
			}
		}
		fig.postingsPerQuery += float64(got.FetchedPosts)
		fig.overlapAt10 += rank.Overlap(in.cen.Search(in.pool[i], topK), got.Results, topK) / 100
		fig.probesPerQuery += float64(got.ProbedKeys)
		fig.fetchRPCs += float64(got.RPCs)
		fig.rounds += float64(got.Rounds)
		fig.failovers += got.Failovers
	}
	n := float64(len(in.pool))
	fig.postingsPerQuery /= n
	fig.overlapAt10 /= n
	fig.probesPerQuery /= n
	fig.fetchRPCs /= n
	fig.rounds /= n
	if fig.failovers != 0 {
		return fig, fmt.Errorf("%d replica failovers with every daemon up", fig.failovers)
	}

	stats, err := c.StoreStats()
	if err != nil {
		return fig, err
	}
	stored := 0
	for _, s := range stats {
		stored += s.Stats.PostsTotal()
	}
	if want := in.ref.Stats().StoredTotal; stored != want {
		return fig, fmt.Errorf("the cluster holds %d postings, the reference %d", stored, want)
	}
	fig.storedPerDoc = float64(stored) / float64(in.col.M())
	return fig, nil
}
