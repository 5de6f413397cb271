package durable

import "repro/internal/telemetry"

// Registry series the durability path emits.
const (
	metricAppends     = "hdk_durable_appends_total"
	metricAppendBytes = "hdk_durable_append_bytes_total"
	metricCompactions = "hdk_durable_compactions_total"
	metricFsyncNanos  = "hdk_durable_fsync_nanoseconds"
	metricLogBytes    = "hdk_durable_log_bytes"
	metricGeneration  = "hdk_durable_generation"
)

// storeMetrics is the durability path's append and compaction counters
// plus the fsync latency histogram — the one number that decides whether
// SyncAlways is affordable on a given disk — on the registry the store
// records into (a private one until Instrument).
type storeMetrics struct {
	appends     *telemetry.Counter
	appendBytes *telemetry.Counter
	compactions *telemetry.Counter
	fsyncLat    *telemetry.Histogram
}

// Instrument makes reg the registry the store records into: per-record
// append counters, compaction runs, fsync latency, and callback gauges
// for the live op-log size and snapshot generation. Safe to call while
// the store is serving; what was counted before stays on the registry
// it was counted in.
func (s *Store) Instrument(reg *telemetry.Registry) {
	m := &storeMetrics{
		appends:     reg.Counter(metricAppends),
		appendBytes: reg.Counter(metricAppendBytes),
		compactions: reg.Counter(metricCompactions),
		fsyncLat:    reg.Histogram(metricFsyncNanos),
	}
	reg.GaugeFunc(metricLogBytes, func() float64 {
		return float64(s.LogBytes())
	})
	reg.GaugeFunc(metricGeneration, func() float64 {
		return float64(s.Generation())
	})
	s.metrics.Store(m)
}
