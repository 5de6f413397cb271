// Package analysis implements Section 4 of the paper as executable code:
// the retrieval-cost bound, the index-size estimates built on the Zipf
// machinery (Theorems 1-3 live in internal/zipfmodel), and the Figure 8
// total-traffic projection comparing single-term and HDK indexing up to
// one billion documents.
package analysis

import (
	"fmt"
	"math"

	"repro/internal/zipfmodel"
)

// QueryKeyCount returns nk, the number of term subsets a query of the
// given size is mapped to (Section 4.2): 2^|q|-1 when |q| <= smax, and
// the tail of binomial sums otherwise. The paper quotes nk ≈ 3.92 for the
// Wikipedia log's average query size of 2.3.
func QueryKeyCount(querySize, smax int) float64 {
	if querySize <= 0 {
		return 0
	}
	if querySize <= smax {
		return math.Exp2(float64(querySize)) - 1
	}
	nk := 0.0
	for s := 1; s <= smax; s++ {
		nk += zipfmodel.Binomial(querySize, s)
	}
	return nk
}

// QueryKeyCountMean evaluates nk at a fractional average query size by
// interpolating 2^q - 1 (the form the paper uses to get 3.92 at q = 2.3).
func QueryKeyCountMean(avgQuerySize float64, smax int) float64 {
	if avgQuerySize <= 0 {
		return 0
	}
	if avgQuerySize <= float64(smax) {
		return math.Exp2(avgQuerySize) - 1
	}
	return QueryKeyCount(int(math.Round(avgQuerySize)), smax)
}

// RetrievalBound returns the Section 4.2 upper bound on per-query
// retrieval traffic in postings: nk * DFmax.
func RetrievalBound(avgQuerySize float64, smax, dfmax int) float64 {
	return QueryKeyCountMean(avgQuerySize, smax) * float64(dfmax)
}

// TrafficModel parameterizes the Figure 8 projection. All quantities are
// in postings; the collection size M is in documents.
type TrafficModel struct {
	// STPostingsPerDoc is the single-term index size per document
	// (paper's Wikipedia measurement: 130).
	STPostingsPerDoc float64
	// HDKPostingsPerDoc is the HDK index insertion cost per document
	// (paper's bound: 5290, i.e. at most 40.7x the single-term cost).
	HDKPostingsPerDoc float64
	// STQueryPostingsPerDoc is the per-query single-term retrieval
	// traffic per collection document: ST posting lists grow linearly
	// with M (Figure 6 measures ~2.2e4 postings/query at 140k docs).
	STQueryPostingsPerDoc float64
	// HDKQueryPostings is the bounded per-query HDK retrieval traffic
	// (nk * DFmax; independent of M — the paper's central claim).
	HDKQueryPostings float64
	// QueriesPerMonth is the query load between two monthly re-indexing
	// runs (paper: 1.5e6 from the Wikipedia log).
	QueriesPerMonth float64
}

// PaperTrafficModel returns the parameterization from the paper's
// Section 5 measurements (DFmax = 500).
func PaperTrafficModel() TrafficModel {
	return TrafficModel{
		STPostingsPerDoc:      130,
		HDKPostingsPerDoc:     5290,
		STQueryPostingsPerDoc: 2.2e4 / 1.4e5,
		HDKQueryPostings:      RetrievalBound(2.3, 3, 500),
		QueriesPerMonth:       1.5e6,
	}
}

// Validate reports whether the model is usable.
func (m TrafficModel) Validate() error {
	if m.STPostingsPerDoc <= 0 || m.HDKPostingsPerDoc <= 0 ||
		m.STQueryPostingsPerDoc <= 0 || m.HDKQueryPostings <= 0 || m.QueriesPerMonth < 0 {
		return fmt.Errorf("analysis: all traffic model parameters must be positive: %+v", m)
	}
	return nil
}

// STTotal returns the monthly single-term traffic at collection size m:
// one full indexing pass plus the query load, both linear in m.
func (m TrafficModel) STTotal(docs float64) float64 {
	return m.STPostingsPerDoc*docs + m.QueriesPerMonth*m.STQueryPostingsPerDoc*docs
}

// HDKTotal returns the monthly HDK traffic at collection size m: a larger
// indexing pass but collection-size-independent query traffic.
func (m TrafficModel) HDKTotal(docs float64) float64 {
	return m.HDKPostingsPerDoc*docs + m.QueriesPerMonth*m.HDKQueryPostings
}

// Ratio returns ST/HDK monthly traffic — how many times less traffic the
// HDK approach generates (paper: ~20x at full Wikipedia, ~42x at 10^9).
func (m TrafficModel) Ratio(docs float64) float64 {
	return m.STTotal(docs) / m.HDKTotal(docs)
}

// Crossover returns the collection size above which the HDK approach
// generates less total traffic than single-term indexing, found by
// bisection over [1, hi]. Returns hi if HDK never wins below it.
func (m TrafficModel) Crossover(hi float64) float64 {
	f := func(docs float64) float64 { return m.STTotal(docs) - m.HDKTotal(docs) }
	lo := 1.0
	if f(lo) > 0 {
		return lo // HDK already wins at a single document
	}
	if f(hi) < 0 {
		return hi
	}
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if f(mid) < 0 {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TrafficPoint is one Figure 8 sample.
type TrafficPoint struct {
	Docs float64
	ST   float64
	HDK  float64
}

// Fig8Series samples the projection at the given collection sizes.
func (m TrafficModel) Fig8Series(docs []float64) []TrafficPoint {
	out := make([]TrafficPoint, len(docs))
	for i, d := range docs {
		out[i] = TrafficPoint{Docs: d, ST: m.STTotal(d), HDK: m.HDKTotal(d)}
	}
	return out
}

// IndexSizeEstimate bundles the Theorem 3 bounds for all key sizes, the
// quantities Figure 5 compares measurements against.
type IndexSizeEstimate struct {
	// RatioBySize[s] is the IS_s/D upper bound.
	RatioBySize []float64
	// Total is the sum over sizes 1..smax.
	Total float64
}

// EstimateIndexSize evaluates Theorem 3 for key sizes 1..smax given the
// per-size frequent-key occurrence probabilities pf[s] (pf[1] is Pf for
// single terms; the paper fits Pf,1 = 0.8 and Pf,2 = 0.257 on Wikipedia).
func EstimateIndexSize(pf []float64, w, smax int) (IndexSizeEstimate, error) {
	// Size s uses Pf for keys of size s-1, so sizes 2..smax consume
	// pf[0..smax-2]; size 1 needs none.
	if smax < 1 || len(pf) < smax-1 {
		return IndexSizeEstimate{}, fmt.Errorf("analysis: need pf for sizes 1..%d, got %d values", smax-1, len(pf))
	}
	est := IndexSizeEstimate{RatioBySize: make([]float64, smax+1)}
	for s := 1; s <= smax; s++ {
		var r float64
		if s == 1 {
			r = zipfmodel.IndexSizeRatio(0, w, 1)
		} else {
			r = zipfmodel.IndexSizeRatio(pf[s-2], w, s)
		}
		est.RatioBySize[s] = r
		est.Total += r
	}
	return est, nil
}
