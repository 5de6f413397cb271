package zipfmodel

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewDistValidation(t *testing.T) {
	if _, err := NewDist(0, 1, 10); err == nil {
		t.Error("skew 0 accepted")
	}
	if _, err := NewDist(1.5, 0, 10); err == nil {
		t.Error("scale 0 accepted")
	}
	if _, err := NewDist(1.5, 1, 0); err == nil {
		t.Error("empty vocabulary accepted")
	}
	if _, err := NewDist(1.5, 100, 10); err != nil {
		t.Errorf("valid params rejected: %v", err)
	}
}

func TestFreqMonotoneDecreasing(t *testing.T) {
	d, _ := NewDist(1.5, 1e6, 1000)
	prev := math.Inf(1)
	for r := 1; r <= d.V; r++ {
		f := d.Freq(r)
		if f >= prev {
			t.Fatalf("Freq not strictly decreasing at rank %d", r)
		}
		prev = f
	}
}

func TestInverseFreqRoundTrip(t *testing.T) {
	d, _ := NewDist(1.5, 1e6, 100000)
	prop := func(r16 uint16) bool {
		r := int(r16)%d.V + 1
		back := d.InverseFreq(d.Freq(r))
		return math.Abs(back-float64(r)) < 1e-6*float64(r)+1e-9
	}
	if err := quick.Check(prop, nil); err != nil {
		t.Error(err)
	}
}

func TestRankForBoundaries(t *testing.T) {
	d, _ := NewDist(1.5, 1e6, 1000)
	// Frequency above z(1) -> no rank qualifies.
	if got := d.RankFor(d.Freq(1) * 2); got != 0 {
		t.Errorf("RankFor(huge) = %d, want 0", got)
	}
	// Frequency below z(V) -> all ranks qualify.
	if got := d.RankFor(d.Freq(d.V) / 2); got != d.V {
		t.Errorf("RankFor(tiny) = %d, want %d", got, d.V)
	}
	// Interior threshold: z(RankFor(f)) >= f > z(RankFor(f)+1).
	f := 500.0
	r := d.RankFor(f)
	if d.Freq(r) < f {
		t.Errorf("z(r)=%g < threshold %g", d.Freq(r), f)
	}
	if d.Freq(r+1) > f {
		t.Errorf("z(r+1)=%g > threshold %g", d.Freq(r+1), f)
	}
}

func TestSamplerMatchesDistribution(t *testing.T) {
	d, _ := NewDist(1.0, 1000, 10)
	s := NewSampler(d, rand.New(rand.NewSource(42)))
	const n = 200000
	counts := make([]int, d.V+1)
	for i := 0; i < n; i++ {
		r := s.Next()
		if r < 1 || r > d.V {
			t.Fatalf("sampled rank %d out of [1,%d]", r, d.V)
		}
		counts[r]++
	}
	// Under a=1.0, rank 1 should be sampled 2x rank 2, 3x rank 3, etc.
	for r := 2; r <= d.V; r++ {
		ratio := float64(counts[1]) / float64(counts[r])
		want := float64(r)
		if math.Abs(ratio-want) > 0.15*want {
			t.Errorf("count ratio rank1/rank%d = %.2f, want ~%.1f", r, ratio, want)
		}
	}
}

func TestTotalMassGrowsWithScale(t *testing.T) {
	d1, _ := NewDist(1.5, 1e5, 10000)
	d2, _ := NewDist(1.5, 1e6, 10000)
	if d1.TotalMass() >= d2.TotalMass() {
		t.Error("TotalMass must grow with scale")
	}
}
