package telemetry

import (
	"encoding/binary"
	"errors"
	"math"

	"repro/internal/wire"
)

// Snapshot wire codec — the payload of the cluster.metrics RPC. Same
// discipline as the rest of the wire: a leading version byte, uvarint
// lengths and counts, and decoders that reject truncated or oversized
// frames instead of allocating on attacker-controlled lengths.
//
// Layout (version 1):
//
//	byte    version (snapshotWireVersion)
//	uvarint counter count, then per counter:
//	          string name, uvarint label count, labels (string key, string value),
//	          uvarint value
//	uvarint gauge count, then per gauge:
//	          name, labels, fixed64 IEEE-754 bits
//	uvarint histogram count, then per histogram:
//	          name, labels, uvarint count, uvarint sum,
//	          uvarint bucket count, then per bucket: uvarint index, uvarint count

const snapshotWireVersion = 1

// maxSnapshotSeries bounds the per-kind series count a decoder will
// accept; a registry approaching it is misusing labels as values.
const maxSnapshotSeries = 1 << 16

// maxSnapshotString bounds any single name/label string.
const maxSnapshotString = 1 << 12

var errCorruptSnapshot = errors.New("telemetry: corrupt metrics snapshot")

// readString reads one name, label or attribute string; any string past
// maxSnapshotString fails r.
func readString(r *wire.Reader) string {
	n := r.Uvarint()
	if n > maxSnapshotString {
		r.Fail()
	}
	return r.String(n)
}

func appendLabels(buf []byte, labels []Label) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(labels)))
	for _, l := range labels {
		buf = wire.AppendString(buf, l.Key)
		buf = wire.AppendString(buf, l.Value)
	}
	return buf
}

func readLabels(r *wire.Reader) []Label {
	n := r.Count(2) // a key and a value length prefix
	if n > 64 {
		r.Fail()
	}
	if r.Err() != nil || n == 0 {
		return nil
	}
	labels := make([]Label, n)
	for i := range labels {
		labels[i] = Label{Key: readString(r), Value: readString(r)}
	}
	return labels
}

// EncodeSnapshot serializes a snapshot in the versioned wire format.
func EncodeSnapshot(s Snapshot) []byte {
	buf := make([]byte, 0, 512)
	buf = append(buf, snapshotWireVersion)
	buf = binary.AppendUvarint(buf, uint64(len(s.Counters)))
	for _, c := range s.Counters {
		buf = wire.AppendString(buf, c.Name)
		buf = appendLabels(buf, c.Labels)
		buf = binary.AppendUvarint(buf, c.Value)
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Gauges)))
	for _, g := range s.Gauges {
		buf = wire.AppendString(buf, g.Name)
		buf = appendLabels(buf, g.Labels)
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(g.Value))
	}
	buf = binary.AppendUvarint(buf, uint64(len(s.Histograms)))
	for _, h := range s.Histograms {
		buf = wire.AppendString(buf, h.Name)
		buf = appendLabels(buf, h.Labels)
		buf = binary.AppendUvarint(buf, h.Count)
		buf = binary.AppendUvarint(buf, h.Sum)
		buf = binary.AppendUvarint(buf, uint64(len(h.Buckets)))
		for _, b := range h.Buckets {
			buf = binary.AppendUvarint(buf, uint64(b.Index))
			buf = binary.AppendUvarint(buf, b.Count)
		}
	}
	return buf
}

// seriesCount reads one kind's series count; a series is at least a
// name length, a label count and a 1-byte value.
func seriesCount(r *wire.Reader) int {
	n := r.Count(3)
	if n > maxSnapshotSeries {
		r.Fail()
		return 0
	}
	return n
}

// DecodeSnapshot parses a snapshot produced by EncodeSnapshot,
// rejecting unknown versions and corrupt frames.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	r := wire.NewReader(b)
	if r.Byte() != snapshotWireVersion {
		return Snapshot{}, errCorruptSnapshot
	}
	var s Snapshot
	s.Counters = make([]CounterValue, seriesCount(&r))
	for i := range s.Counters {
		s.Counters[i] = CounterValue{Name: readString(&r), Labels: readLabels(&r), Value: r.Uvarint()}
	}
	s.Gauges = make([]GaugeValue, seriesCount(&r))
	for i := range s.Gauges {
		s.Gauges[i] = GaugeValue{Name: readString(&r), Labels: readLabels(&r), Value: math.Float64frombits(r.Uint64LE())}
	}
	s.Histograms = make([]HistogramValue, seriesCount(&r))
	for i := range s.Histograms {
		h := &s.Histograms[i]
		h.Name, h.Labels, h.Count, h.Sum = readString(&r), readLabels(&r), r.Uvarint(), r.Uvarint()
		bc := r.Count(2) // an index and a count
		if bc > histNumBuckets {
			r.Fail()
		}
		h.Buckets = make([]BucketCount, bc)
		for j := range h.Buckets {
			idx, cnt := r.Uvarint(), r.Uvarint()
			// Buckets must be strictly ascending and in range, or
			// Quantile's cumulative walk would lie.
			if idx >= histNumBuckets || j > 0 && int(idx) <= h.Buckets[j-1].Index {
				r.Fail()
			}
			h.Buckets[j] = BucketCount{Index: int(idx), Count: cnt}
		}
	}
	if !r.Done() {
		return Snapshot{}, errCorruptSnapshot
	}
	return s, nil
}
