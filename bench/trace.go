package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed operation of one request, as the benchmark records
// it: the harness's own root span around the client call, and beneath it
// the tree the coordinating daemon returned. Spans of one request share
// Req; Parent indexes into the same request's spans, -1 for the root.
type span struct {
	Req    int               `json:"req"`
	ID     int               `json:"id"`
	Parent int               `json:"parent"`
	Name   string            `json:"name"`
	Start  time.Duration     `json:"start_ns"` // offset from the stream's start
	Dur    time.Duration     `json:"dur_ns"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// rootSpan is the harness's span around one client call. Its self time is
// the stated unattributed residual: client codec, the client↔coordinator
// round trip and the daemon's request decode and response encode.
const rootSpan = "client.search"

// requestSpans turns one traced request into its span list. The daemon's
// clock is not the client's, so its tree is centred inside the client's
// interval, which splits the unattributed time evenly between the way
// there and the way back.
func requestSpans(req int, rt requestTrace) []span {
	spans := []span{{Req: req, ID: 0, Parent: -1, Name: rootSpan, Start: rt.start, Dur: rt.latency}}
	if rt.trace == nil {
		spans[0].Attrs = map[string]string{"cache": "hit"}
		return spans
	}
	shift := rt.start
	if len(rt.trace.Spans) > 0 {
		shift += (rt.latency - rt.trace.Spans[0].Dur) / 2
	}
	for i, ts := range rt.trace.Spans {
		s := span{Req: req, ID: i + 1, Parent: ts.Parent + 1, Name: ts.Name, Start: shift + ts.Start, Dur: ts.Dur}
		if len(ts.Attrs) > 0 {
			s.Attrs = make(map[string]string, len(ts.Attrs))
			for _, a := range ts.Attrs {
				s.Attrs[a.Key] = a.Value
			}
		}
		spans = append(spans, s)
	}
	return spans
}

// selfTimes attributes every instant of the root span's interval to one
// span of the request: a span keeps the part of its interval that no
// child covers, and where children run in parallel (a level's fetches)
// the covered instant is split equally among the children active in it.
// For a serial tree this is duration minus children; in every tree the
// self times sum to the root's duration, which is what lets the table be
// read as shares of client-observed latency.
func selfTimes(spans []span) []time.Duration {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 && s.Parent < len(spans) && s.Parent != i {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]float64, len(spans))
	// attribute shares out span i's interval [lo, hi), already clipped to
	// its ancestors; scale is the share of that interval span i was
	// itself handed.
	var attribute func(i int, lo, hi time.Duration, scale float64)
	attribute = func(i int, lo, hi time.Duration, scale float64) {
		type iv struct{ lo, hi time.Duration }
		kids := make([]iv, len(children[i]))
		cuts := []time.Duration{lo, hi}
		for k, c := range children[i] {
			// A child may not claim time outside its parent.
			klo, khi := max(spans[c].Start, lo), min(spans[c].Start+spans[c].Dur, hi)
			if khi < klo {
				khi = klo
			}
			kids[k] = iv{klo, khi}
			cuts = append(cuts, klo, khi)
		}
		sort.Slice(cuts, func(a, b int) bool { return cuts[a] < cuts[b] })
		allotted := make([]float64, len(kids))
		own := 0.0
		for x := 0; x+1 < len(cuts); x++ {
			a, b := cuts[x], cuts[x+1]
			if b == a {
				continue
			}
			active := 0
			for _, k := range kids {
				if k.lo <= a && b <= k.hi {
					active++
				}
			}
			if active == 0 {
				own += float64(b - a)
				continue
			}
			for k, kid := range kids {
				if kid.lo <= a && b <= kid.hi {
					allotted[k] += float64(b-a) / float64(active)
				}
			}
		}
		self[i] = own * scale
		for k, c := range children[i] {
			if d := kids[k].hi - kids[k].lo; d > 0 {
				attribute(c, kids[k].lo, kids[k].hi, scale*allotted[k]/float64(d))
			}
		}
	}
	for i, s := range spans {
		if s.Parent < 0 {
			attribute(i, s.Start, s.Start+s.Dur, 1)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, v := range self {
		out[i] = time.Duration(v + 0.5)
	}
	return out
}

// spanRow is one line of the per-span-name table.
type spanRow struct {
	name  string
	count int
	total time.Duration // summed durations
	self  time.Duration // summed self times
}

// spanTable folds traced requests into one row per span name, ordered by
// self time, and returns the summed root duration the shares refer to.
func spanTable(traces []requestTrace) (rows []spanRow, rootTotal time.Duration) {
	byName := map[string]*spanRow{}
	for req, rt := range traces {
		spans := requestSpans(req, rt)
		self := selfTimes(spans)
		rootTotal += spans[0].Dur
		for i, s := range spans {
			r := byName[s.Name]
			if r == nil {
				r = &spanRow{name: s.Name}
				byName[s.Name] = r
			}
			r.count++
			r.total += s.Dur
			r.self += self[i]
		}
	}
	for _, r := range byName {
		rows = append(rows, *r)
	}
	sort.Slice(rows, func(a, b int) bool {
		if rows[a].self != rows[b].self {
			return rows[a].self > rows[b].self
		}
		return rows[a].name < rows[b].name
	})
	return rows, rootTotal
}

// traceFileRequests caps how many requests' spans go into the trace file;
// the table is computed over all of them.
const traceFileRequests = 2000

// writeTraceFile writes the spans kept in memory during the run.
func writeTraceFile(path, workload string, seed int64, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	err = enc.Encode(struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, spans})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
