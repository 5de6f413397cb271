package telemetry

import (
	"encoding/binary"
	"errors"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/wire"
)

// Per-query tracing. A coordination produces one Trace: a flat span
// list forming a tree via parent indices (span 0 is the root). Spans
// carry string attributes for the numbers the paper's evaluation cares
// about — per-level probe and RPC counts, fetched postings, failover
// waves — so a rendered trace is a per-query audit of the nk·DFmax
// traffic bound. The trace rides back to the client inside the
// hdk.search response (opt-in flag) and hdksearch -trace renders it.

// TraceAttr is one key=value annotation on a span.
type TraceAttr struct {
	Key   string
	Value string
}

// Str constructs a string attribute.
func Str(key, value string) TraceAttr { return TraceAttr{Key: key, Value: value} }

// Num constructs a numeric attribute (stored as its decimal string).
func Num(key string, v uint64) TraceAttr {
	return TraceAttr{Key: key, Value: strconv.FormatUint(v, 10)}
}

// TraceSpan is one timed operation inside a coordination. Start is the
// offset from the trace's origin; Parent is the index of the enclosing
// span, -1 for the root.
type TraceSpan struct {
	Name   string
	Parent int
	Start  time.Duration
	Dur    time.Duration
	Attrs  []TraceAttr
}

// Attr returns the value of the named attribute, or "" when absent.
func (sp *TraceSpan) Attr(key string) string {
	for _, a := range sp.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// Trace is a completed span tree. Spans[0] is the root; children
// always follow their parent (spans are appended in start order).
type Trace struct {
	Spans []TraceSpan
}

// Find returns the indices of every span with the given name, in start
// order.
func (t *Trace) Find(name string) []int {
	var out []int
	for i := range t.Spans {
		if t.Spans[i].Name == name {
			out = append(out, i)
		}
	}
	return out
}

// TraceBuilder accumulates spans during a coordination. All methods
// are safe on a nil receiver (they no-op, Start returns -1), so
// instrumented code paths need no "is tracing on" branches, and safe
// for concurrent use (fetch waves run on goroutines).
type TraceBuilder struct {
	mu    sync.Mutex
	t0    time.Time
	spans []TraceSpan
}

// StartTrace begins a trace whose root span has the given name.
func StartTrace(name string, attrs ...TraceAttr) *TraceBuilder {
	b := &TraceBuilder{t0: time.Now()}
	b.spans = append(b.spans, TraceSpan{Name: name, Parent: -1, Attrs: attrs})
	return b
}

// Start opens a child span under parent and returns its index.
func (b *TraceBuilder) Start(parent int, name string, attrs ...TraceAttr) int {
	if b == nil {
		return -1
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if parent < -1 || parent >= len(b.spans) {
		parent = 0
	}
	b.spans = append(b.spans, TraceSpan{
		Name:   name,
		Parent: parent,
		Start:  time.Since(b.t0),
		Attrs:  attrs,
	})
	return len(b.spans) - 1
}

// End closes the span, recording its duration.
func (b *TraceBuilder) End(id int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if id < 0 || id >= len(b.spans) {
		return
	}
	b.spans[id].Dur = time.Since(b.t0) - b.spans[id].Start
}

// Annotate appends attributes to an open or closed span.
func (b *TraceBuilder) Annotate(id int, attrs ...TraceAttr) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if id < 0 || id >= len(b.spans) {
		return
	}
	b.spans[id].Attrs = append(b.spans[id].Attrs, attrs...)
}

// Finish closes the root span and returns the completed trace. The
// builder must not be used afterwards.
func (b *TraceBuilder) Finish() *Trace {
	if b == nil {
		return nil
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spans[0].Dur = time.Since(b.t0)
	return &Trace{Spans: b.spans}
}

// Format renders the trace as an indented tree, one span per line:
//
//	coordinate 12.4ms terms=2 k=10
//	├─ admission 13µs wait=queue
//	└─ level 2.1ms level=2 rpcs=3 probes=4
//	   └─ fetch 1.9ms owner=127.0.0.1:7431 keys=2 wave=0
//
// Durations are rounded for reading; attributes render in insertion
// order. The same renderer serves hdksearch -trace and the e2e's
// span-tree assertions.
func (t *Trace) Format() string {
	if t == nil || len(t.Spans) == 0 {
		return "(empty trace)\n"
	}
	children := make(map[int][]int)
	for i := 1; i < len(t.Spans); i++ {
		p := t.Spans[i].Parent
		children[p] = append(children[p], i)
	}
	for _, c := range children {
		sort.Ints(c)
	}
	var b strings.Builder
	var walk func(id int, prefix string, last bool)
	walk = func(id int, prefix string, last bool) {
		sp := &t.Spans[id]
		line := prefix
		childPrefix := prefix
		if id != 0 {
			if last {
				line += "└─ "
				childPrefix += "   "
			} else {
				line += "├─ "
				childPrefix += "│  "
			}
		}
		b.WriteString(line)
		b.WriteString(sp.Name)
		b.WriteByte(' ')
		b.WriteString(sp.Dur.Round(time.Microsecond).String())
		for _, a := range sp.Attrs {
			b.WriteByte(' ')
			b.WriteString(a.Key)
			b.WriteByte('=')
			b.WriteString(a.Value)
		}
		b.WriteByte('\n')
		kids := children[id]
		for i, c := range kids {
			walk(c, childPrefix, i == len(kids)-1)
		}
	}
	walk(0, "", true)
	return b.String()
}

// Trace wire codec — appended to traced hdk.search responses.
//
// Layout (version 1): byte version, uvarint span count, then per span:
// string name, uvarint parent+1 (0 encodes the root's -1), uvarint
// start nanos, uvarint duration nanos, uvarint attr count, attrs as
// string pairs.

const traceWireVersion = 1

// maxTraceSpans bounds decoder allocation; a coordination produces at
// most a few spans per lattice level per owner.
const maxTraceSpans = 1 << 14

var errCorruptTrace = errors.New("telemetry: corrupt trace")

// EncodeTrace serializes a trace in the versioned wire format.
func EncodeTrace(t *Trace) []byte {
	buf := make([]byte, 0, 256)
	buf = append(buf, traceWireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(t.Spans)))
	for i := range t.Spans {
		sp := &t.Spans[i]
		buf = wire.AppendString(buf, sp.Name)
		buf = binary.AppendUvarint(buf, uint64(sp.Parent+1))
		buf = binary.AppendUvarint(buf, uint64(sp.Start))
		buf = binary.AppendUvarint(buf, uint64(sp.Dur))
		buf = binary.AppendUvarint(buf, uint64(len(sp.Attrs)))
		for _, a := range sp.Attrs {
			buf = wire.AppendString(buf, a.Key)
			buf = wire.AppendString(buf, a.Value)
		}
	}
	return buf
}

// DecodeTrace parses a trace produced by EncodeTrace, rejecting
// unknown versions, out-of-order parents and corrupt frames.
func DecodeTrace(b []byte) (*Trace, error) {
	r := wire.NewReader(b)
	if r.Byte() != traceWireVersion {
		return nil, errCorruptTrace
	}
	// A span is at least a name length, a parent, a start, a duration and
	// an attr count.
	n := r.Count(5)
	if n == 0 || n > maxTraceSpans {
		return nil, errCorruptTrace
	}
	t := &Trace{Spans: make([]TraceSpan, n)}
	for i := range t.Spans {
		sp := &t.Spans[i]
		sp.Name = readString(&r)
		// Parents must precede children (p is parent+1, so p <= i) and
		// the root (parent -1, encoded 0) is legal only at index 0.
		p := r.Uvarint()
		if p > uint64(i) || (i == 0) != (p == 0) {
			r.Fail()
		}
		sp.Parent = int(p) - 1
		sp.Start, sp.Dur = time.Duration(r.Uvarint()), time.Duration(r.Uvarint())
		ac := r.Count(2) // a key and a value length prefix
		if ac > 256 {
			r.Fail()
		}
		for j := 0; j < ac; j++ {
			sp.Attrs = append(sp.Attrs, TraceAttr{Key: readString(&r), Value: readString(&r)})
		}
	}
	if !r.Done() {
		return nil, errCorruptTrace
	}
	return t, nil
}
