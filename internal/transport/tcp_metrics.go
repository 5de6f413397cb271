package transport

import (
	"time"

	"repro/internal/telemetry"
)

// Registry series the TCP transport emits.
const (
	metricDials         = "hdk_transport_dials_total"
	metricPoolReuses    = "hdk_transport_pool_reuses_total"
	metricStaleRetries  = "hdk_transport_stale_retries_total"
	metricIdleDropped   = "hdk_transport_idle_dropped_total"
	metricCallErrors    = "hdk_transport_call_errors_total"
	metricDialNanos     = "hdk_transport_dial_nanoseconds"
	metricCallNanos     = "hdk_transport_call_nanoseconds"
	metricRequestBytes  = "hdk_transport_request_bytes_total"
	metricResponseBytes = "hdk_transport_response_bytes_total"
	metricInflightCalls = "hdk_transport_inflight_calls"
	metricIdleConns     = "hdk_transport_idle_conns"
)

// tcpMetrics is the pool's counters, the round trips' payload bytes
// and the two latency histograms only the transport can measure, on the
// registry the transport records into (a private one until Instrument).
type tcpMetrics struct {
	dials         *telemetry.Counter
	reuses        *telemetry.Counter
	staleRetries  *telemetry.Counter
	idleDropped   *telemetry.Counter
	callErrors    *telemetry.Counter
	requestBytes  *telemetry.Counter
	responseBytes *telemetry.Counter
	dialLat       *telemetry.Histogram
	callLat       *telemetry.Histogram
}

// Instrument makes reg the registry the transport records into: dial
// and end-to-end call latency histograms, the pool's dial, reuse,
// stale-retry and idle-drop counters, the round trips' request and
// response payload bytes, and callback gauges for the live in-flight
// call and idle connection counts. Safe to call while the transport is
// serving; what was counted before stays on the registry it was counted
// in.
func (t *TCP) Instrument(reg *telemetry.Registry) {
	m := &tcpMetrics{
		dials:         reg.Counter(metricDials),
		reuses:        reg.Counter(metricPoolReuses),
		staleRetries:  reg.Counter(metricStaleRetries),
		idleDropped:   reg.Counter(metricIdleDropped),
		callErrors:    reg.Counter(metricCallErrors),
		requestBytes:  reg.Counter(metricRequestBytes),
		responseBytes: reg.Counter(metricResponseBytes),
		dialLat:       reg.Histogram(metricDialNanos),
		callLat:       reg.Histogram(metricCallNanos),
	}
	reg.GaugeFunc(metricInflightCalls, func() float64 {
		t.mu.Lock()
		defer t.mu.Unlock()
		return float64(len(t.inflight))
	})
	reg.GaugeFunc(metricIdleConns, func() float64 {
		return float64(t.IdleConns())
	})
	t.metrics.Store(m)
}

// observeRoundTrip records one completed round trip — an answer or a
// handler error: its end-to-end latency (pool checkout and any
// stale-retry re-dial included — the latency a caller actually
// experienced) and its request and response payload bytes.
func (t *TCP) observeRoundTrip(d time.Duration, reqLen, respLen int) {
	m := t.metrics.Load()
	m.callLat.ObserveDuration(d)
	m.requestBytes.Add(uint64(reqLen))
	m.responseBytes.Add(uint64(respLen))
}
