package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/telemetry"
)

// The benchmark's own arithmetic, cluster-free.

func TestSeededInputsReproduce(t *testing.T) {
	draw := func(seed int64) []int {
		z := newZipfSampler(poolSize, zipfS, derive(seed, streamZipf))
		out := make([]int, 1000)
		for i := range out {
			out[i] = z.next()
		}
		return out
	}
	if !reflect.DeepEqual(draw(7), draw(7)) {
		t.Error("the Zipf sampler does not repeat for one seed")
	}
	if reflect.DeepEqual(draw(7), draw(8)) {
		t.Error("two seeds drew the same Zipf sequence")
	}
	if !reflect.DeepEqual(clientOffsets(7, 4, poolSize), clientOffsets(7, 4, poolSize)) {
		t.Error("client offsets do not repeat for one seed")
	}
	if derive(1, streamCorpus) == derive(1, streamPool) || derive(1, streamCorpus) == derive(2, streamCorpus) {
		t.Error("derive does not separate streams and seeds")
	}
}

func TestZipfSamplerSkew(t *testing.T) {
	z := newZipfSampler(poolSize, zipfS, 1)
	const draws = 200000
	head := 0
	for i := 0; i < draws; i++ {
		r := z.next()
		if r < 0 || r >= poolSize {
			t.Fatalf("rank %d out of range", r)
		}
		if r < zipfCache {
			head++
		}
	}
	// Mass of the first c ranks under Zipf(1) is H(c)/H(n).
	h := func(n int) float64 {
		s := 0.0
		for r := 1; r <= n; r++ {
			s += 1 / float64(r)
		}
		return s
	}
	want := h(zipfCache) / h(poolSize)
	if got := float64(head) / draws; math.Abs(got-want) > 0.01 {
		t.Errorf("the first %d ranks drew %.3f of the mass, want %.3f", zipfCache, got, want)
	}
}

func TestHighestPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{
		{50, 0}, // p90 leaves 5 beyond
		{100, 0.9},
		{999, 0.9}, // p99 leaves 9 beyond
		{1000, 0.99},
		{9999, 0.99},
		{10000, 0.999},
		{100000, 0.9999},
	} {
		if got := highestPercentile(tc.n); got != tc.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", tc.n, got, tc.want)
		}
	}
}

func TestWindowStats(t *testing.T) {
	var samples []sample
	// Slice 0: 10 requests of 1 ms; slice 1: 20 of 2 ms; one request in
	// the warm-up and one after the window, both to be dropped.
	samples = append(samples, sample{done: 500 * time.Millisecond, latency: time.Hour})
	for i := 0; i < 10; i++ {
		samples = append(samples, sample{done: time.Second + time.Duration(i)*time.Millisecond, latency: time.Millisecond})
	}
	for i := 0; i < 20; i++ {
		samples = append(samples, sample{done: 2*time.Second + time.Duration(i)*time.Millisecond, latency: 2 * time.Millisecond})
	}
	samples = append(samples, sample{done: 3 * time.Second, latency: time.Hour})
	got := windowStats(samples, time.Second, 3*time.Second, 2)
	want := []sliceStats{{n: 10, qps: 10, p50: 1, p99: 1}, {n: 20, qps: 20, p50: 2, p99: 2}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("windowStats = %+v, want %+v", got, want)
	}
	if m := medianOf(got, func(s sliceStats) float64 { return s.qps }); m != 15 {
		t.Errorf("median slice qps = %g, want 15", m)
	}
}

func TestHistogramDelta(t *testing.T) {
	reg := telemetry.NewRegistry()
	h := reg.Histogram(seriesCoordNanos)
	c := reg.Counter(seriesCacheHits)
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	c.Add(5)
	before := reg.Snapshot()
	for i := 0; i < 10; i++ {
		h.Observe(1 << 20)
	}
	c.Add(3)
	after := reg.Snapshot()

	d := histDelta([]telemetry.Snapshot{before}, []telemetry.Snapshot{after}, seriesCoordNanos)
	if d.Count != 10 {
		t.Fatalf("delta holds %d observations, want the window's 10", d.Count)
	}
	if q := d.Quantile(0.5); q < 1<<20 || q > (1<<20)*9/8 {
		t.Errorf("delta median %d is not the window's value", q)
	}
	if n := counterDelta([]telemetry.Snapshot{before}, []telemetry.Snapshot{after}, seriesCacheHits); n != 3 {
		t.Errorf("counter delta %d, want 3", n)
	}
	// A series that first appears during the window, and a daemon whose
	// earlier snapshot is empty: the delta is everything observed.
	fresh := histDelta([]telemetry.Snapshot{{}}, []telemetry.Snapshot{after}, seriesCoordNanos)
	if fresh.Count != 110 {
		t.Errorf("delta against an empty snapshot holds %d, want 110", fresh.Count)
	}
	// The interpolated quantile stays inside the bucket the plain one
	// names, and moves with the counts.
	if q, upper := histQuantile(d, 0.5), float64(d.Quantile(0.5)); q > upper+1 || q < upper*8/9 {
		t.Errorf("interpolated median %g is outside the bucket ending at %g", q, upper)
	}
	if histQuantile(d, 0.2) >= histQuantile(d, 0.8) {
		t.Error("interpolated quantiles do not grow with the rank inside one bucket")
	}
	if none := histDelta([]telemetry.Snapshot{before}, []telemetry.Snapshot{after}, "hdk_absent_nanoseconds"); none.Count != 0 || none.Quantile(0.5) != 0 {
		t.Errorf("an absent series did not read as empty: %+v", none)
	}
}

func TestBusyPortIsNamed(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	port := ln.Addr().(*net.TCPAddr).Port
	f := &fleet{bin: "/nonexistent", outDir: t.TempDir(), basePort: port - 1, tag: "t"}
	err = f.start(false)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprint(port)) {
		t.Errorf("start on a busy port: %v, want an error naming port %d", err, port)
	}
	if len(f.procs) != 0 {
		t.Error("a daemon was started before the ports were checked")
	}
}

func ms(n int) time.Duration { return time.Duration(n) * time.Millisecond }

func TestSelfTimesSerialTree(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: rootSpan, Start: 0, Dur: ms(100)},
		{ID: 1, Parent: 0, Name: "coordinate", Start: ms(10), Dur: ms(80)},
		{ID: 2, Parent: 1, Name: "admission", Start: ms(10), Dur: ms(5)},
		{ID: 3, Parent: 1, Name: "level", Start: ms(20), Dur: ms(50)},
		{ID: 4, Parent: 3, Name: "fetch", Start: ms(25), Dur: ms(30)},
		{ID: 5, Parent: 1, Name: "rank", Start: ms(75), Dur: ms(10)},
	}
	want := []time.Duration{ms(20), ms(15), ms(5), ms(20), ms(30), ms(10)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestSelfTimesParallelChildren(t *testing.T) {
	// Two fetches overlap for 20 ms inside a 60 ms level: the level keeps
	// what neither covers, the overlap is split, and the self times still
	// sum to the root.
	spans := []span{
		{ID: 0, Parent: -1, Name: rootSpan, Start: 0, Dur: ms(100)},
		{ID: 1, Parent: 0, Name: "level", Start: ms(20), Dur: ms(60)},
		{ID: 2, Parent: 1, Name: "fetch", Start: ms(20), Dur: ms(40)}, // 20..60
		{ID: 3, Parent: 1, Name: "fetch", Start: ms(40), Dur: ms(30)}, // 40..70
		{ID: 4, Parent: 1, Name: "union", Start: ms(70), Dur: ms(5)},
	}
	want := []time.Duration{ms(40), ms(5), ms(30), ms(20), ms(5)}
	got := selfTimes(spans)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	var sum time.Duration
	for _, d := range got {
		sum += d
	}
	if sum != spans[0].Dur {
		t.Errorf("self times sum to %v, want the root's %v", sum, spans[0].Dur)
	}
}

func TestSelfTimesClipsToParent(t *testing.T) {
	// A child that claims to outlast its parent (two clocks) keeps only
	// what lies inside, and its own child is scaled with it.
	spans := []span{
		{ID: 0, Parent: -1, Name: rootSpan, Start: 0, Dur: ms(10)},
		{ID: 1, Parent: 0, Name: "coordinate", Start: ms(5), Dur: ms(10)},
		{ID: 2, Parent: 1, Name: "rank", Start: ms(5), Dur: ms(10)},
	}
	want := []time.Duration{ms(5), 0, ms(5)}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestRequestSpansCentreTheDaemonTree(t *testing.T) {
	rt := requestTrace{start: ms(1000), latency: ms(10), trace: &telemetry.Trace{Spans: []telemetry.TraceSpan{
		{Name: "coordinate", Parent: -1, Dur: ms(6)},
		{Name: "rank", Parent: 0, Start: ms(4), Dur: ms(2), Attrs: []telemetry.TraceAttr{telemetry.Num("k", 10)}},
	}}}
	got := requestSpans(3, rt)
	want := []span{
		{Req: 3, ID: 0, Parent: -1, Name: rootSpan, Start: ms(1000), Dur: ms(10)},
		{Req: 3, ID: 1, Parent: 0, Name: "coordinate", Start: ms(1002), Dur: ms(6)},
		{Req: 3, ID: 2, Parent: 1, Name: "rank", Start: ms(1006), Dur: ms(2), Attrs: map[string]string{"k": "10"}},
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("spans %+v, want %+v", got, want)
	}
	hit := requestSpans(0, requestTrace{latency: ms(1)})
	if len(hit) != 1 || hit[0].Attrs["cache"] != "hit" {
		t.Errorf("a cache hit should be the root span alone, got %+v", hit)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles([1, 2, 4, 7, 11, 16, 22, 29, 37, 46], n=4)
	// == [3.5, 13.5, 31.0]
	q1, q3 := quartiles([]float64{46, 1, 2, 4, 7, 11, 16, 22, 29, 37})
	if q1 != 3.5 || q3 != 31 {
		t.Errorf("quartiles = %g, %g, want 3.5, 31", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{1, 2, 3}); q1 != 1 || q3 != 3 {
		t.Errorf("quartiles of three = %g, %g, want 1, 3", q1, q3)
	}
}

func TestVerdicts(t *testing.T) {
	steady := func(c float64) []float64 { return []float64{c * 0.99, c, c, c, c * 1.01} }
	for _, tc := range []struct {
		name       string
		base, cand []float64
		higher     bool
		want       string
	}{
		{"lower is better, 20% slower", steady(100), steady(120), false, verdictWorse},
		{"lower is better, 20% faster", steady(100), steady(80), false, verdictBetter},
		{"lower is better, within the bound", steady(100), steady(104), false, verdictUnchanged},
		{"higher is better, 20% less", steady(100), steady(80), true, verdictWorse},
		{"higher is better, 20% more", steady(100), steady(120), true, verdictBetter},
		{"spread wider than the bound", []float64{80, 90, 100, 110, 120}, steady(100), false, verdictUnresolved},
		{"single runs", []float64{100}, []float64{120}, false, verdictWorse},
	} {
		if got, _ := verdict(tc.base, tc.cand, tc.higher, 0.1); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	spec := filepath.Join(dir, "BENCHMARK.json")
	os.WriteFile(spec, []byte(`{"workloads":[{"name":"w"}],"end_to_end":[
		{"name":"query_qps","unit":"req/s","better":"higher","bound":0.1},
		{"name":"setup_s","unit":"s","better":"lower","bound":0.25}]}`), 0o644)
	write := func(name string, qps, setup float64) string {
		p := filepath.Join(dir, name)
		for i := 0; i < 3; i++ {
			r := &result{workload: "w", seed: int64(i), metrics: map[string]float64{"query_qps": qps, "setup_s": setup}}
			if err := appendRecord(p, r, endToEnd[:2]); err != nil {
				t.Fatal(err)
			}
		}
		return p
	}
	a, b := write("a", 1000, 2), write("b", 800, 2.1)
	var out bytes.Buffer
	bad, err := compareFiles(&out, spec, a, b)
	if err != nil {
		t.Fatal(err)
	}
	if !bad || !strings.Contains(out.String(), verdictWorse) || !strings.Contains(out.String(), verdictUnchanged) {
		t.Errorf("want one worse and one unchanged row, got bad=%v\n%s", bad, out.String())
	}
	out.Reset()
	if bad, _ := compareFiles(&out, spec, a, a); bad {
		t.Errorf("a file compared with itself is not clean:\n%s", out.String())
	}
}

// TestSpecMatchesContract holds BENCHMARK.json and the program together:
// the same workloads, the same metrics with the same units and
// directions, and bounds within the contract's limit.
func TestSpecMatchesContract(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var file struct {
		Paths     []string `json:"paths"`
		Workloads []struct {
			Name, Why string
		} `json:"workloads"`
		EndToEnd []struct {
			Name, Unit, Better string
			Bound              *float64
		} `json:"end_to_end"`
		PerLayer []struct {
			Name, Unit, Better string
		} `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &file); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range file.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters", w.Name)
		}
	}
	var want []string
	for _, w := range workloads {
		want = append(want, w.name)
	}
	if !reflect.DeepEqual(names, want) {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	better := func(m metric) string {
		if m.higher {
			return "higher"
		}
		return "lower"
	}
	if len(file.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the program %d", len(file.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		f := file.EndToEnd[i]
		if f.Name != m.name || f.Unit != m.unit || f.Better != better(m) {
			t.Errorf("end_to_end[%d] = %+v, program has %+v", i, f, m)
		}
		if f.Bound == nil || *f.Bound <= 0 || *f.Bound > 0.25 {
			t.Errorf("%s: bound must be in (0, 0.25]", f.Name)
		}
	}
	if len(file.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the program %d", len(file.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		if f := file.PerLayer[i]; f.Name != m.name || f.Unit != m.unit || f.Better != better(m) {
			t.Errorf("per_layer[%d] = %+v, program has %+v", i, f, m)
		}
	}
}
