package telemetry

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Prometheus text exposition (format version 0.0.4) for the hdknode
// -http /metrics endpoint. Code that reads a daemon's counters reads its
// Snapshot (cluster.metrics), not this text.

// escapeLabelValue escapes a label value per the exposition format.
func escapeLabelValue(v string) string {
	if !strings.ContainsAny(v, "\\\"\n") {
		return v
	}
	var b strings.Builder
	for _, r := range v {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// renderLabels renders {k="v",...} with an optional extra pair appended
// (used for histogram le labels); empty input and extra renders "".
func renderLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabelValue(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, escapeLabelValue(extraVal))
	}
	b.WriteByte('}')
	return b.String()
}

// formatFloat renders a float the way Prometheus clients expect:
// shortest representation, integral values without an exponent.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// WritePrometheus renders the snapshot in the Prometheus text
// exposition format. Series of the same metric are grouped under one
// # TYPE header (the snapshot's canonical ordering already keeps them
// adjacent). Histograms render cumulative le buckets plus _sum and
// _count, so any Prometheus-compatible scraper can compute quantiles.
func (s Snapshot) WritePrometheus(w io.Writer) error {
	bw := bufio.NewWriter(w)
	lastType := ""
	header := func(name, kind string) {
		if name != lastType {
			fmt.Fprintf(bw, "# TYPE %s %s\n", name, kind)
			lastType = name
		}
	}
	for _, c := range s.Counters {
		header(c.Name, "counter")
		fmt.Fprintf(bw, "%s%s %d\n", c.Name, renderLabels(c.Labels, "", ""), c.Value)
	}
	for _, g := range s.Gauges {
		header(g.Name, "gauge")
		fmt.Fprintf(bw, "%s%s %s\n", g.Name, renderLabels(g.Labels, "", ""), formatFloat(g.Value))
	}
	for _, h := range s.Histograms {
		header(h.Name, "histogram")
		var cum uint64
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(bw, "%s_bucket%s %d\n",
				h.Name, renderLabels(h.Labels, "le", strconv.FormatUint(bucketUpper(b.Index), 10)), cum)
		}
		fmt.Fprintf(bw, "%s_bucket%s %d\n", h.Name, renderLabels(h.Labels, "le", "+Inf"), cum)
		fmt.Fprintf(bw, "%s_sum%s %d\n", h.Name, renderLabels(h.Labels, "", ""), h.Sum)
		fmt.Fprintf(bw, "%s_count%s %d\n", h.Name, renderLabels(h.Labels, "", ""), h.Count)
	}
	return bw.Flush()
}
