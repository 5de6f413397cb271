// Package zipfmodel implements the Zipf-law machinery underlying the
// paper's scalability analysis (Section 4): the parametric rank-frequency
// function z(r) = C(l)·r^-a, rank sampling for the synthetic corpus
// generator, and the closed-form term-occurrence probabilities of
// Theorems 1 and 2.
package zipfmodel

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
)

// Dist is a Zipf rank-frequency model z(r) = C·r^-a over ranks 1..V.
type Dist struct {
	Skew  float64 // a, the skew parameter (paper fits a1 = 1.5 on Wikipedia)
	Scale float64 // C(l), grows with the collection sample size l
	V     int     // vocabulary size (number of distinct ranks)
}

// NewDist validates and constructs a Dist.
func NewDist(skew, scale float64, vocab int) (*Dist, error) {
	if skew <= 0 {
		return nil, fmt.Errorf("zipfmodel: skew must be positive, got %g", skew)
	}
	if scale <= 0 {
		return nil, fmt.Errorf("zipfmodel: scale must be positive, got %g", scale)
	}
	if vocab < 1 {
		return nil, fmt.Errorf("zipfmodel: vocabulary must be >= 1, got %d", vocab)
	}
	return &Dist{Skew: skew, Scale: scale, V: vocab}, nil
}

// Freq returns z(r) = C·r^-a, the modeled collection frequency of the term
// with rank r (1-based).
func (d *Dist) Freq(rank int) float64 {
	if rank < 1 {
		return 0
	}
	return d.Scale * math.Pow(float64(rank), -d.Skew)
}

// InverseFreq returns z^-1(f) = (C/f)^(1/a), the (real-valued) rank whose
// modeled frequency equals f.
func (d *Dist) InverseFreq(f float64) float64 {
	if f <= 0 {
		return math.Inf(1)
	}
	return math.Pow(d.Scale/f, 1/d.Skew)
}

// RankFor returns the largest integer rank whose modeled frequency is still
// strictly above the threshold f, i.e. the boundary ranks r_f and r_r of
// Figure 2.
func (d *Dist) RankFor(f float64) int {
	r := int(math.Floor(d.InverseFreq(f)))
	if r < 0 {
		return 0
	}
	if r > d.V {
		return d.V
	}
	return r
}

// TotalMass approximates the sample size implied by the model: the sum of
// z(r) over r = 1..V, computed by the same integral approximation the paper
// uses in the Theorem 1 proof.
func (d *Dist) TotalMass() float64 {
	return d.integral(1, float64(d.V))
}

// integral computes ∫_lo^hi C·r^-a dr.
func (d *Dist) integral(lo, hi float64) float64 {
	if hi <= lo {
		return 0
	}
	a := d.Skew
	if math.Abs(a-1) < 1e-12 {
		return d.Scale * (math.Log(hi) - math.Log(lo))
	}
	return d.Scale / (1 - a) * (math.Pow(hi, 1-a) - math.Pow(lo, 1-a))
}

// Sampler draws term ranks with probability proportional to z(r),
// deterministic given the *rand.Rand source. It uses the alias-free inverse
// CDF over the exact discrete masses, so small vocabularies are sampled
// exactly.
type Sampler struct {
	cdf []float64
	rng *rand.Rand
}

// NewSampler builds a sampler over the distribution using rng as the
// randomness source. Building is O(V).
func NewSampler(d *Dist, rng *rand.Rand) *Sampler {
	cdf := make([]float64, d.V)
	sum := 0.0
	for r := 1; r <= d.V; r++ {
		sum += d.Freq(r)
		cdf[r-1] = sum
	}
	// Normalize so binary search on [0,1) works irrespective of scale.
	for i := range cdf {
		cdf[i] /= sum
	}
	return &Sampler{cdf: cdf, rng: rng}
}

// Next returns a 1-based rank sampled from the distribution.
func (s *Sampler) Next() int {
	u := s.rng.Float64()
	return sort.SearchFloat64s(s.cdf, u) + 1
}
