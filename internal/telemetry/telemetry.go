// Package telemetry is the cluster's dependency-free observation
// layer: a metrics registry (counters, gauges, callback gauges and
// log-bucketed latency histograms with mergeable buckets), a versioned
// binary snapshot codec served over the cluster.metrics RPC, Prometheus
// text exposition for the hdknode -http endpoint, and a per-query trace
// model (one span tree per coordination) that hdksearch -trace renders.
//
// The registry is the single source of truth for everything the system
// can report about itself: every reader of a daemon's counters reads
// its snapshot (over cluster.metrics, or in-process), the /metrics
// endpoint is a rendering of that snapshot, and bench/run.sh reads
// server-side latency quantiles from its histograms. All hot-path
// instruments (Counter.Add, Histogram.Observe) are lock-free atomics;
// the registry mutex is taken only on series registration and snapshot.
package telemetry

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Label is one name="value" dimension on a metric series. Series
// identity is the metric name plus the sorted label set.
type Label struct {
	Key   string
	Value string
}

// L is shorthand for constructing a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing uint64. Safe for concurrent
// use; Add is a single atomic op.
type Counter struct {
	v atomic.Uint64
}

// Add increments the counter by n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// Gauge is a float64 that can go up and down (queue depth, log bytes).
// Safe for concurrent use.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value.
func (g *Gauge) Set(v float64) { g.bits.Store(math.Float64bits(v)) }

// Value returns the current gauge value.
func (g *Gauge) Value() float64 { return math.Float64frombits(g.bits.Load()) }

// Registry holds every metric series a node exports. Series are
// registered once (repeat registration returns the existing instrument)
// and snapshotted atomically enough for monitoring: counters and
// histogram buckets are read with atomic loads, callback gauges are
// evaluated at snapshot time.
type Registry struct {
	mu         sync.RWMutex
	counters   map[string]*counterSeries
	gauges     map[string]*gaugeSeries
	gaugeFuncs map[string]*gaugeFuncSeries
	hists      map[string]*histSeries
}

type counterSeries struct {
	name   string
	labels []Label
	c      Counter
}

type gaugeSeries struct {
	name   string
	labels []Label
	g      Gauge
}

type gaugeFuncSeries struct {
	name   string
	labels []Label
	fn     func() float64
}

type histSeries struct {
	name   string
	labels []Label
	h      Histogram
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters:   make(map[string]*counterSeries),
		gauges:     make(map[string]*gaugeSeries),
		gaugeFuncs: make(map[string]*gaugeFuncSeries),
		hists:      make(map[string]*histSeries),
	}
}

// seriesID renders the canonical identity of a series: the metric name
// followed by the sorted label pairs. Sorting makes registration and
// snapshot order independent of call-site label order.
func seriesID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	sorted := append([]Label(nil), labels...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Key < sorted[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range sorted {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(l.Value)
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

// sortedLabels returns a canonically ordered copy of labels.
func sortedLabels(labels []Label) []Label {
	if len(labels) == 0 {
		return nil
	}
	out := append([]Label(nil), labels...)
	sort.Slice(out, func(i, j int) bool { return out[i].Key < out[j].Key })
	return out
}

// checkName panics on a metric or label name that the Prometheus
// exposition format would reject. Metric names are compile-time
// constants, so this is a programmer error surfaced at first use.
func checkName(name string) {
	if name == "" {
		panic("telemetry: empty metric name")
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		ok := c == '_' || c == ':' ||
			(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
			(c >= '0' && c <= '9' && i > 0)
		if !ok {
			panic(fmt.Sprintf("telemetry: invalid metric name %q", name))
		}
	}
}

// Counter returns the counter series for name+labels, registering it on
// first use.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	checkName(name)
	id := seriesID(name, labels)
	r.mu.RLock()
	s := r.counters[id]
	r.mu.RUnlock()
	if s != nil {
		return &s.c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.counters[id]; s != nil {
		return &s.c
	}
	s = &counterSeries{name: name, labels: sortedLabels(labels)}
	r.counters[id] = s
	return &s.c
}

// Gauge returns the gauge series for name+labels, registering it on
// first use.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	checkName(name)
	id := seriesID(name, labels)
	r.mu.RLock()
	s := r.gauges[id]
	r.mu.RUnlock()
	if s != nil {
		return &s.g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.gauges[id]; s != nil {
		return &s.g
	}
	s = &gaugeSeries{name: name, labels: sortedLabels(labels)}
	r.gauges[id] = s
	return &s.g
}

// GaugeFunc registers a callback gauge evaluated at snapshot time —
// the fit for values the owning subsystem already maintains under its
// own lock (queue depth, idle connections, op-log bytes). The callback
// must not call back into Snapshot. Re-registering a series replaces
// its callback.
func (r *Registry) GaugeFunc(name string, fn func() float64, labels ...Label) {
	checkName(name)
	id := seriesID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.gaugeFuncs[id] = &gaugeFuncSeries{name: name, labels: sortedLabels(labels), fn: fn}
}

// Histogram returns the histogram series for name+labels, registering
// it on first use.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	checkName(name)
	id := seriesID(name, labels)
	r.mu.RLock()
	s := r.hists[id]
	r.mu.RUnlock()
	if s != nil {
		return &s.h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if s := r.hists[id]; s != nil {
		return &s.h
	}
	s = &histSeries{name: name, labels: sortedLabels(labels)}
	r.hists[id] = s
	return &s.h
}

// Snapshot captures every series in the registry. Counter and histogram
// values are atomic loads (each series internally consistent, the set
// as a whole a monitoring-grade snapshot, not a transaction); callback
// gauges are evaluated here. Series are sorted by identity, so equal
// registries produce byte-identical encodings.
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	counters := make([]*counterSeries, 0, len(r.counters))
	for _, s := range r.counters {
		counters = append(counters, s)
	}
	gauges := make([]*gaugeSeries, 0, len(r.gauges))
	for _, s := range r.gauges {
		gauges = append(gauges, s)
	}
	gaugeFuncs := make([]*gaugeFuncSeries, 0, len(r.gaugeFuncs))
	for _, s := range r.gaugeFuncs {
		gaugeFuncs = append(gaugeFuncs, s)
	}
	hists := make([]*histSeries, 0, len(r.hists))
	for _, s := range r.hists {
		hists = append(hists, s)
	}
	r.mu.RUnlock()

	var snap Snapshot
	snap.Counters = make([]CounterValue, 0, len(counters))
	for _, s := range counters {
		snap.Counters = append(snap.Counters, CounterValue{
			Name: s.name, Labels: s.labels, Value: s.c.Value(),
		})
	}
	snap.Gauges = make([]GaugeValue, 0, len(gauges)+len(gaugeFuncs))
	for _, s := range gauges {
		snap.Gauges = append(snap.Gauges, GaugeValue{
			Name: s.name, Labels: s.labels, Value: s.g.Value(),
		})
	}
	for _, s := range gaugeFuncs {
		snap.Gauges = append(snap.Gauges, GaugeValue{
			Name: s.name, Labels: s.labels, Value: s.fn(),
		})
	}
	snap.Histograms = make([]HistogramValue, 0, len(hists))
	for _, s := range hists {
		hv := s.h.Snapshot()
		hv.Name = s.name
		hv.Labels = s.labels
		snap.Histograms = append(snap.Histograms, hv)
	}
	snap.sort()
	return snap
}

// CounterValue is one counter series in a snapshot.
type CounterValue struct {
	Name   string
	Labels []Label
	Value  uint64
}

// GaugeValue is one gauge series in a snapshot (plain and callback
// gauges are indistinguishable once snapshotted).
type GaugeValue struct {
	Name   string
	Labels []Label
	Value  float64
}

// Snapshot is a point-in-time capture of a registry, the payload of the
// cluster.metrics RPC and the input to Prometheus exposition.
type Snapshot struct {
	Counters   []CounterValue
	Gauges     []GaugeValue
	Histograms []HistogramValue
}

func (s *Snapshot) sort() {
	sort.Slice(s.Counters, func(i, j int) bool {
		return seriesID(s.Counters[i].Name, s.Counters[i].Labels) < seriesID(s.Counters[j].Name, s.Counters[j].Labels)
	})
	sort.Slice(s.Gauges, func(i, j int) bool {
		return seriesID(s.Gauges[i].Name, s.Gauges[i].Labels) < seriesID(s.Gauges[j].Name, s.Gauges[j].Labels)
	})
	sort.Slice(s.Histograms, func(i, j int) bool {
		return seriesID(s.Histograms[i].Name, s.Histograms[i].Labels) < seriesID(s.Histograms[j].Name, s.Histograms[j].Labels)
	})
}

// Counter returns the value of the named counter series and whether it
// exists in the snapshot.
func (s Snapshot) Counter(name string, labels ...Label) (uint64, bool) {
	id := seriesID(name, labels)
	for _, c := range s.Counters {
		if seriesID(c.Name, c.Labels) == id {
			return c.Value, true
		}
	}
	return 0, false
}

// CounterSum sums every series of the named counter across label sets
// (e.g. a per-level counter summed over levels).
func (s Snapshot) CounterSum(name string) uint64 {
	var sum uint64
	for _, c := range s.Counters {
		if c.Name == name {
			sum += c.Value
		}
	}
	return sum
}

// Gauge returns the value of the named gauge series and whether it
// exists in the snapshot.
func (s Snapshot) Gauge(name string, labels ...Label) (float64, bool) {
	id := seriesID(name, labels)
	for _, g := range s.Gauges {
		if seriesID(g.Name, g.Labels) == id {
			return g.Value, true
		}
	}
	return 0, false
}

// Histogram returns the named histogram series and whether it exists in
// the snapshot.
func (s Snapshot) Histogram(name string, labels ...Label) (HistogramValue, bool) {
	id := seriesID(name, labels)
	for _, h := range s.Histograms {
		if seriesID(h.Name, h.Labels) == id {
			return h, true
		}
	}
	return HistogramValue{}, false
}
