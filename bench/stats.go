package main

import (
	"math"
	"sort"
	"time"

	"repro/internal/telemetry"
)

// quantile returns the q-quantile of sorted (nearest rank), 0 when empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	return sorted[i]
}

// median sorts a copy of vs and returns the middle value, the mean of the
// middle two for an even count.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// tailPercentiles are the tail percentiles the report may name, highest
// first.
var tailPercentiles = []float64{0.9999, 0.999, 0.99, 0.9}

// highestPercentile picks the highest tail percentile that still has at
// least ten of n samples beyond it; 0 when even p90 has not.
func highestPercentile(n int) float64 {
	for _, p := range tailPercentiles {
		// The samples strictly beyond the nearest-rank p-quantile.
		if n-int(math.Ceil(p*float64(n))) >= 10 {
			return p
		}
	}
	return 0
}

// sample is one completed request: when it completed, as an offset from
// the run's start, and how long the client waited for it.
type sample struct {
	done    time.Duration
	latency time.Duration
}

// sliceStats are the client-observed figures of one slice of the window.
type sliceStats struct {
	n             int
	qps, p50, p99 float64 // req/s, ms, ms
}

// windowStats cuts [from, to) into n equal slices and summarizes each.
// The reported figures are medians over the slices, so one disturbed
// second on a shared box moves a slice, not the result.
func windowStats(samples []sample, from, to time.Duration, n int) []sliceStats {
	width := (to - from) / time.Duration(n)
	lat := make([][]float64, n)
	for _, s := range samples {
		if s.done < from || s.done >= from+width*time.Duration(n) {
			continue
		}
		i := int((s.done - from) / width)
		lat[i] = append(lat[i], float64(s.latency)/1e6)
	}
	out := make([]sliceStats, n)
	for i, l := range lat {
		sort.Float64s(l)
		out[i] = sliceStats{
			n:   len(l),
			qps: float64(len(l)) / width.Seconds(),
			p50: quantile(l, 0.5),
			p99: quantile(l, 0.99),
		}
	}
	return out
}

func medianOf(slices []sliceStats, f func(sliceStats) float64) float64 {
	vs := make([]float64, len(slices))
	for i, s := range slices {
		vs[i] = f(s)
	}
	return median(vs)
}

// histDelta sums, over the daemons, the observations the named histogram
// took between two rounds of snapshots. A series missing from a snapshot
// counts as empty, so a histogram that first appears during the window
// still yields its window observations.
func histDelta(before, after []telemetry.Snapshot, name string, labels ...telemetry.Label) telemetry.HistogramValue {
	var sum telemetry.HistogramValue
	for i := range after {
		a, _ := after[i].Histogram(name, labels...)
		b, _ := before[i].Histogram(name, labels...)
		sum = sum.Merge(a.Sub(b))
	}
	return sum
}

// counterDelta sums, over the daemons and over label sets, the growth of
// the named counter between two rounds of snapshots.
func counterDelta(before, after []telemetry.Snapshot, name string) uint64 {
	var d uint64
	for i := range after {
		d += after[i].CounterSum(name) - before[i].CounterSum(name)
	}
	return d
}

// histQuantile estimates the q-quantile of a daemon histogram in
// nanoseconds, interpolating linearly inside the bucket the rank falls
// in. HistogramValue.Quantile answers with the bucket's upper bound, which
// reads the same from run to run; the interpolated value moves with the
// counts, within the same ≤ 12.5 % bucket error.
func histQuantile(hv telemetry.HistogramValue, q float64) float64 {
	if hv.Count == 0 {
		return 0
	}
	rank := q * float64(hv.Count)
	cum := 0.0
	for _, b := range hv.Buckets {
		if n := float64(b.Count); cum+n >= rank {
			lo, hi := bucketBounds(b.Index)
			return lo + (hi-lo)*(rank-cum)/n
		}
		cum += float64(b.Count)
	}
	_, hi := bucketBounds(hv.Buckets[len(hv.Buckets)-1].Index)
	return hi
}

// bucketBounds recovers a bucket's value range through the package's
// public surface: the quantile of a histogram holding one observation in
// bucket idx is that bucket's upper bound, and a bucket starts where the
// one before it ends.
func bucketBounds(idx int) (lo, hi float64) {
	upper := func(i int) float64 {
		one := telemetry.HistogramValue{Count: 1, Buckets: []telemetry.BucketCount{{Index: i, Count: 1}}}
		return float64(one.Quantile(0.5))
	}
	if idx > 0 {
		lo = upper(idx-1) + 1
	}
	return lo, upper(idx) + 1
}

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
