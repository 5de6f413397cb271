package telemetry

import (
	"bytes"
	"math"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("hdk_test_total")
	c.Add(3)
	c.Inc()
	if c.Value() != 4 {
		t.Fatalf("counter = %d, want 4", c.Value())
	}
	if again := r.Counter("hdk_test_total"); again != c {
		t.Fatal("re-registration returned a different counter")
	}
	// Label order must not matter for identity.
	a := r.Counter("hdk_labeled_total", L("x", "1"), L("y", "2"))
	b := r.Counter("hdk_labeled_total", L("y", "2"), L("x", "1"))
	if a != b {
		t.Fatal("label order changed series identity")
	}
	a.Inc()

	g := r.Gauge("hdk_test_gauge")
	g.Set(2.5)
	if g.Value() != 2.5 {
		t.Fatalf("gauge = %v, want 2.5", g.Value())
	}
	r.GaugeFunc("hdk_test_depth", func() float64 { return 42 })

	h := r.Histogram("hdk_test_nanoseconds")
	h.ObserveDuration(1500 * time.Nanosecond)
	h.ObserveDuration(-time.Second) // clamps to 0

	snap := r.Snapshot()
	if v, ok := snap.Counter("hdk_test_total"); !ok || v != 4 {
		t.Fatalf("snapshot counter = %d,%v", v, ok)
	}
	if v, ok := snap.Counter("hdk_labeled_total", L("y", "2"), L("x", "1")); !ok || v != 1 {
		t.Fatalf("snapshot labeled counter = %d,%v", v, ok)
	}
	if snap.CounterSum("hdk_labeled_total") != 1 {
		t.Fatal("CounterSum miscounted")
	}
	if v, ok := snap.Gauge("hdk_test_depth"); !ok || v != 42 {
		t.Fatalf("snapshot gauge func = %v,%v", v, ok)
	}
	hv, ok := snap.Histogram("hdk_test_nanoseconds")
	if !ok || hv.Count != 2 || hv.Sum != 1500 {
		t.Fatalf("snapshot histogram = %+v,%v", hv, ok)
	}
	if _, ok := snap.Counter("hdk_absent_total"); ok {
		t.Fatal("absent series reported present")
	}
}

func TestBadMetricNamePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("invalid metric name did not panic")
		}
	}()
	NewRegistry().Counter("bad name!")
}

// TestRegistryConcurrentStress hammers one registry from many
// goroutines — registration races, hot-path increments and snapshots
// all interleave. Run under -race this is the registry's thread-safety
// proof; the final snapshot must account for every operation exactly.
func TestRegistryConcurrentStress(t *testing.T) {
	r := NewRegistry()
	const (
		workers = 8
		perW    = 2000
	)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perW; i++ {
				// Same series from every goroutine: registration must
				// dedupe under the race.
				r.Counter("hdk_stress_total").Inc()
				r.Counter("hdk_stress_labeled_total", L("worker", "shared")).Inc()
				r.Histogram("hdk_stress_nanoseconds").Observe(uint64(i))
				r.Gauge("hdk_stress_gauge").Set(float64(i))
				if i%100 == 0 {
					snap := r.Snapshot()
					if v, _ := snap.Counter("hdk_stress_total"); v > workers*perW {
						t.Errorf("impossible counter value %d", v)
						return
					}
					var buf bytes.Buffer
					if err := snap.WritePrometheus(&buf); err != nil {
						t.Errorf("exposition during stress: %v", err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	snap := r.Snapshot()
	if v, _ := snap.Counter("hdk_stress_total"); v != workers*perW {
		t.Fatalf("counter = %d, want %d", v, workers*perW)
	}
	if v, _ := snap.Counter("hdk_stress_labeled_total", L("worker", "shared")); v != workers*perW {
		t.Fatalf("labeled counter = %d, want %d", v, workers*perW)
	}
	hv, _ := snap.Histogram("hdk_stress_nanoseconds")
	if hv.Count != workers*perW {
		t.Fatalf("histogram count = %d, want %d", hv.Count, workers*perW)
	}
}

func TestSnapshotWireRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Counter("hdk_a_total").Add(12)
	r.Counter("hdk_b_total", L("level", "2")).Add(7)
	r.Gauge("hdk_depth").Set(-3.25)
	r.GaugeFunc("hdk_fn", func() float64 { return math.Inf(1) })
	h := r.Histogram("hdk_lat_nanoseconds", L("path", "search"))
	for i := uint64(1); i < 2000; i += 17 {
		h.Observe(i * i)
	}
	snap := r.Snapshot()

	enc := EncodeSnapshot(snap)
	dec, err := DecodeSnapshot(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(snap, dec) {
		t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", dec, snap)
	}
	// Re-encoding the decode must be byte-identical (canonical order).
	if !bytes.Equal(enc, EncodeSnapshot(dec)) {
		t.Fatal("re-encoding is not canonical")
	}

	// Every truncation must error, never panic or misparse.
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeSnapshot(enc[:i]); err == nil {
			t.Fatalf("truncation at %d decoded cleanly", i)
		}
	}
	// Trailing garbage and version skew are corrupt.
	if _, err := DecodeSnapshot(append(append([]byte(nil), enc...), 0)); err == nil {
		t.Fatal("trailing garbage decoded cleanly")
	}
	bad := append([]byte(nil), enc...)
	bad[0] = 99
	if _, err := DecodeSnapshot(bad); err == nil {
		t.Fatal("unknown version decoded cleanly")
	}
}

func TestTraceBuildFormatRoundTrip(t *testing.T) {
	b := StartTrace("coordinate", Num("k", 10), Str("terms", "alpha beta"))
	adm := b.Start(0, "admission")
	b.End(adm)
	lvl := b.Start(0, "level", Num("level", 2))
	f1 := b.Start(lvl, "fetch", Str("owner", "127.0.0.1:7001"), Num("wave", 0))
	b.End(f1)
	b.Annotate(lvl, Num("rpcs", 1))
	b.End(lvl)
	tr := b.Finish()

	if len(tr.Spans) != 4 {
		t.Fatalf("span count = %d, want 4", len(tr.Spans))
	}
	if got := tr.Find("fetch"); len(got) != 1 || tr.Spans[got[0]].Parent != lvl {
		t.Fatalf("fetch span misparented: %v", got)
	}
	if tr.Spans[lvl].Attr("rpcs") != "1" {
		t.Fatal("annotation lost")
	}

	enc := EncodeTrace(tr)
	dec, err := DecodeTrace(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(tr, dec) {
		t.Fatalf("trace round trip mismatch:\n got %+v\nwant %+v", dec, tr)
	}
	for i := 0; i < len(enc); i++ {
		if _, err := DecodeTrace(enc[:i]); err == nil {
			t.Fatalf("trace truncation at %d decoded cleanly", i)
		}
	}

	out := dec.Format()
	for _, want := range []string{"coordinate", "├─ admission", "└─ level", "   └─ fetch", "owner=127.0.0.1:7001", "k=10"} {
		if !strings.Contains(out, want) {
			t.Fatalf("formatted trace missing %q:\n%s", want, out)
		}
	}
	// Nil-safety: instrumented code paths run with tracing off.
	var nb *TraceBuilder
	if id := nb.Start(0, "x"); id != -1 {
		t.Fatal("nil builder Start did not return -1")
	}
	nb.End(-1)
	nb.Annotate(-1, Num("a", 1))
	if nb.Finish() != nil {
		t.Fatal("nil builder Finish != nil")
	}
}

// TestPrometheusExposition pins the writer's whole output for a fixed
// registry: label-value escaping of a quote, a backslash and a newline,
// one TYPE header per metric, a gauge, and a histogram's cumulative le
// buckets (appended after its own labels), +Inf bucket, _sum and _count.
func TestPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	r.Counter("hdk_reqs_total", L("path", "a\"b\\c\nd")).Add(5)
	r.Gauge("hdk_depth").Set(1.5)
	h := r.Histogram("hdk_lat_nanoseconds", L("level", "1"))
	h.Observe(3)
	h.Observe(100)
	h.Observe(100)

	var buf bytes.Buffer
	if err := r.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatalf("write: %v", err)
	}
	want := `# TYPE hdk_reqs_total counter
hdk_reqs_total{path="a\"b\\c\nd"} 5
# TYPE hdk_depth gauge
hdk_depth 1.5
# TYPE hdk_lat_nanoseconds histogram
hdk_lat_nanoseconds_bucket{level="1",le="3"} 1
hdk_lat_nanoseconds_bucket{level="1",le="103"} 3
hdk_lat_nanoseconds_bucket{level="1",le="+Inf"} 3
hdk_lat_nanoseconds_sum{level="1"} 203
hdk_lat_nanoseconds_count{level="1"} 3
`
	if got := buf.String(); got != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", got, want)
	}
}
