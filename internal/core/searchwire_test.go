package core

import (
	"encoding/binary"
	"errors"
	"reflect"
	"testing"
	"time"

	"repro/internal/corpus"
	"repro/internal/overlay"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

func TestSearchRequestRoundTrip(t *testing.T) {
	cases := []SearchRequest{
		{Terms: nil, K: 0},
		{Terms: []string{"alpha"}, K: 10},
		{Terms: []string{"alpha", "beta", "a\x1fcompound"}, K: 20, NoCache: true},
		{Terms: []string{"alpha", "beta"}, K: 5, Trace: true},
		{Terms: []string{"alpha"}, K: 3, NoCache: true, Trace: true},
		{Terms: []string{""}, K: 1 << 19},
	}
	for _, in := range cases {
		buf := EncodeSearchRequest(in)
		out, err := DecodeSearchRequest(buf)
		if err != nil {
			t.Fatalf("%+v: %v", in, err)
		}
		if out.K != in.K || out.NoCache != in.NoCache || out.Trace != in.Trace || len(out.Terms) != len(in.Terms) {
			t.Fatalf("round trip mismatch: %+v vs %+v", in, out)
		}
		for i := range in.Terms {
			if out.Terms[i] != in.Terms[i] {
				t.Fatalf("term %d: %q != %q", i, out.Terms[i], in.Terms[i])
			}
		}
	}
}

// TestSearchRequestCanonical pins the property the coordinator's result
// cache depends on: equal requests encode to equal bytes.
func TestSearchRequestCanonical(t *testing.T) {
	a := EncodeSearchRequest(SearchRequest{Terms: []string{"x", "y"}, K: 10})
	b := EncodeSearchRequest(SearchRequest{Terms: []string{"x", "y"}, K: 10})
	if string(a) != string(b) {
		t.Fatal("identical requests encode differently")
	}
	c := EncodeSearchRequest(SearchRequest{Terms: []string{"x", "y"}, K: 10, NoCache: true})
	if string(a) == string(c) {
		t.Fatal("options not reflected in the encoding")
	}
}

func TestSearchRequestCorrupt(t *testing.T) {
	valid := EncodeSearchRequest(SearchRequest{Terms: []string{"alpha", "beta"}, K: 10})
	cases := map[string][]byte{
		"empty input":      {},
		"huge k":           {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"unknown flag bit": {10, 0x04, 0},
		"truncated terms":  valid[:len(valid)-2],
	}
	for name, buf := range cases {
		if _, err := DecodeSearchRequest(buf); err == nil {
			t.Errorf("%s: decoded without error", name)
		} else if !errors.Is(err, errCorruptRPC) && !errors.Is(err, postings.ErrCorrupt) {
			t.Errorf("%s: unexpected error class %v", name, err)
		}
	}
}

func TestSearchResponseRoundTrip(t *testing.T) {
	in := &SearchResult{
		Results: []rank.Result{
			{Doc: 0, Score: 12.0625},
			{Doc: 41, Score: 0.0001220703125},
			{Doc: 1<<32 - 1, Score: -1.5},
		},
		FetchedPosts: 991,
		ProbedKeys:   7,
		FoundKeys:    5,
		RPCs:         4,
		Rounds:       3,
		Failovers:    1,
	}
	for _, cached := range []bool{false, true} {
		resp := EncodeSearchResponse(EncodeSearchResult(in), cached)
		out, gotCached, err := DecodeSearchResponse(resp)
		if err != nil {
			t.Fatal(err)
		}
		if gotCached != cached {
			t.Fatalf("cached flag = %v, want %v", gotCached, cached)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
		}
	}
	// Scores survive bit-exactly (the parity gates compare with
	// reflect.DeepEqual on float64s).
	resp := EncodeSearchResponse(EncodeSearchResult(in), false)
	out, _, _ := DecodeSearchResponse(resp)
	for i := range in.Results {
		if out.Results[i].Score != in.Results[i].Score {
			t.Fatalf("score %d not bit-exact", i)
		}
	}
}

func TestSearchResponseEmpty(t *testing.T) {
	resp := EncodeSearchResponse(EncodeSearchResult(&SearchResult{}), false)
	out, cached, err := DecodeSearchResponse(resp)
	if err != nil || cached {
		t.Fatalf("empty response: %v cached=%v", err, cached)
	}
	if len(out.Results) != 0 || out.ProbedKeys != 0 {
		t.Fatalf("empty response decoded to %+v", out)
	}
}

func TestSearchResponseCorrupt(t *testing.T) {
	valid := EncodeSearchResponse(EncodeSearchResult(&SearchResult{
		Results: []rank.Result{{Doc: 3, Score: 1.5}}, ProbedKeys: 1, FoundKeys: 1, RPCs: 1, Rounds: 1,
	}), false)
	cases := map[string][]byte{
		"empty input":       {},
		"bad flag":          {7},
		"huge result count": {0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"truncated score":   valid[:4],
		"missing metrics":   valid[:len(valid)-3],
		"trailing garbage":  append(append([]byte{}, valid...), 0xaa),
	}
	for name, buf := range cases {
		if _, _, err := DecodeSearchResponse(buf); !errors.Is(err, errCorruptRPC) {
			t.Errorf("%s: got %v, want errCorruptRPC", name, err)
		}
	}
}

// TestSearchResponseTracedRoundTrip pins the traced response frame:
// the answer decodes bit-identically to an untraced frame and the trace
// bytes ride behind the length-prefixed body; truncations are corrupt.
func TestSearchResponseTracedRoundTrip(t *testing.T) {
	in := &SearchResult{
		Results:      []rank.Result{{Doc: 3, Score: 1.5}, {Doc: 9, Score: 2.25}},
		FetchedPosts: 42, ProbedKeys: 3, FoundKeys: 2, RPCs: 2, Rounds: 2,
	}
	tb := telemetry.StartTrace("coordinate", telemetry.Num("k", 2))
	lvl := tb.Start(0, "level", telemetry.Num("level", 1))
	tb.End(lvl)
	traceBytes := telemetry.EncodeTrace(tb.Finish())

	resp := EncodeSearchResponseTraced(EncodeSearchResult(in), traceBytes)
	out, cached, gotTrace, err := DecodeSearchResponseTrace(resp)
	if err != nil {
		t.Fatal(err)
	}
	if cached {
		t.Fatal("traced frame decoded as cached")
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip mismatch:\nin:  %+v\nout: %+v", in, out)
	}
	tr, err := telemetry.DecodeTrace(gotTrace)
	if err != nil {
		t.Fatalf("trace bytes corrupt after frame round trip: %v", err)
	}
	if len(tr.Spans) != 2 || tr.Spans[0].Name != "coordinate" {
		t.Fatalf("trace mangled: %+v", tr.Spans)
	}
	// The plain decoder must accept the traced frame too (trace ignored).
	if out2, _, err := DecodeSearchResponse(resp); err != nil || !reflect.DeepEqual(in, out2) {
		t.Fatalf("plain decode of traced frame: %+v, %v", out2, err)
	}
	// Untraced frames surface nil trace bytes.
	if _, _, tb2, err := DecodeSearchResponseTrace(EncodeSearchResponse(EncodeSearchResult(in), false)); err != nil || tb2 != nil {
		t.Fatalf("untraced frame: trace=%v err=%v", tb2, err)
	}
	// A traced frame with no trace bytes is corrupt.
	if _, _, _, err := DecodeSearchResponseTrace(EncodeSearchResponseTraced(EncodeSearchResult(in), nil)); !errors.Is(err, errCorruptRPC) {
		t.Fatalf("empty trace accepted: %v", err)
	}
	for cut := 0; cut < len(resp); cut++ {
		DecodeSearchResponseTrace(resp[:cut]) // must not panic
	}
}

// TestSearchOverloadRoundTrip pins the overload rejection frame: the
// retry-after hint survives the wire (floored at 1ms, capped at 60s),
// the decode surfaces a *OverloadError matchable via errors.Is, and a
// rejection is a decode-level error, never a result.
func TestSearchOverloadRoundTrip(t *testing.T) {
	cases := []struct {
		in   time.Duration
		want time.Duration
	}{
		{0, time.Millisecond},                      // floored: a hint is always positive
		{300 * time.Microsecond, time.Millisecond}, // sub-ms floors too
		{time.Millisecond, time.Millisecond},
		{25 * time.Millisecond, 25 * time.Millisecond},
		{time.Second, time.Second},
		{5 * time.Minute, 60 * time.Second}, // capped at maxRetryAfterMS
	}
	for _, tc := range cases {
		res, cached, err := DecodeSearchResponse(EncodeSearchOverloaded(tc.in))
		if res != nil || cached {
			t.Fatalf("hint %v: overload decoded to a result (%+v cached=%v)", tc.in, res, cached)
		}
		var ov *OverloadError
		if !errors.As(err, &ov) {
			t.Fatalf("hint %v: got %v, want *OverloadError", tc.in, err)
		}
		if !errors.Is(err, ErrOverloaded) {
			t.Fatalf("hint %v: errors.Is(err, ErrOverloaded) = false", tc.in)
		}
		if ov.RetryAfter != tc.want {
			t.Fatalf("hint %v: decoded retry-after %v, want %v", tc.in, ov.RetryAfter, tc.want)
		}
	}
}

// TestSearchOverloadCorrupt: malformed overload frames are corrupt RPCs,
// not zero-valued backoff hints.
func TestSearchOverloadCorrupt(t *testing.T) {
	valid := EncodeSearchOverloaded(25 * time.Millisecond)
	cases := map[string][]byte{
		"flag only, no hint": {2},
		"zero hint":          {2, 0},
		"hint beyond cap":    binary.AppendUvarint([]byte{2}, maxRetryAfterMS+1),
		"huge hint":          {2, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"trailing garbage":   append(append([]byte{}, valid...), 0x00),
	}
	for name, buf := range cases {
		if _, _, err := DecodeSearchResponse(buf); !errors.Is(err, errCorruptRPC) {
			t.Errorf("%s: got %v, want errCorruptRPC", name, err)
		}
	}
}

func TestSearchResponseCorruptNeverPanics(t *testing.T) {
	valid := EncodeSearchResponse(EncodeSearchResult(&SearchResult{
		Results:    []rank.Result{{Doc: 3, Score: 1.5}, {Doc: 9, Score: 2.25}},
		ProbedKeys: 3, FoundKeys: 2, RPCs: 2, Rounds: 2,
	}), true)
	for cut := 0; cut < len(valid); cut++ {
		DecodeSearchResponse(valid[:cut]) // must not panic
	}
	for i := range valid {
		mut := append([]byte(nil), valid...)
		mut[i] ^= 0xff
		DecodeSearchResponse(mut) // must not panic; error or garbage both fine
	}
	reqValid := EncodeSearchRequest(SearchRequest{Terms: []string{"alpha", "beta"}, K: 9, NoCache: true})
	for cut := 0; cut < len(reqValid); cut++ {
		DecodeSearchRequest(reqValid[:cut])
	}
	for i := range reqValid {
		mut := append([]byte(nil), reqValid...)
		mut[i] ^= 0xff
		DecodeSearchRequest(mut)
	}
	ovValid := EncodeSearchOverloaded(37 * time.Millisecond)
	for cut := 0; cut < len(ovValid); cut++ {
		DecodeSearchResponse(ovValid[:cut])
	}
	for i := range ovValid {
		mut := append([]byte(nil), ovValid...)
		mut[i] ^= 0xff
		DecodeSearchResponse(mut)
	}
}

// TestQueryTermsRendering pins the coordinator input contract:
// deduplicated, very-frequent-filtered, ascending-TermID canonical
// strings.
func TestQueryTermsRendering(t *testing.T) {
	col := testCollection(t, 20)
	cfg := testConfig(col, 6)
	cfg.Ff = 10
	vocab := []string{"zed", "alpha", "mid"}
	freqs := []int{1, 100, 1} // "alpha" exceeds Ff
	net := overlay.NewNetwork(transport.NewInProc())
	if _, err := net.AddNode("n0"); err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine(net, cfg, vocab, freqs)
	if err != nil {
		t.Fatal(err)
	}
	q := corpus.Query{Terms: []corpus.TermID{2, 0, 2, 1, 0}}
	got := eng.QueryTerms(q)
	// TermID order (0,2 after dedup; 1 dropped as very frequent):
	want := []string{"zed", "mid"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("QueryTerms = %v, want %v", got, want)
	}
}

// codecSink keeps the measured codec results alive across runs.
var codecSink any

// TestSearchCodecAllocCeilings holds the coordination RPC's codecs to
// their allocations per call on fixed inputs — a 4-term request and a
// 10-result answer. A ceiling is the count the codec has today: adding
// one allocation to the per-query wire path fails here.
func TestSearchCodecAllocCeilings(t *testing.T) {
	req := SearchRequest{Terms: []string{"marginal", "utility", "discriminative", "keys"}, K: 10}
	res := &SearchResult{FetchedPosts: 4096, ProbedKeys: 25, FoundKeys: 11, RPCs: 9, Rounds: 3, Failovers: 1}
	for i := 0; i < 10; i++ {
		res.Results = append(res.Results, rank.Result{Doc: corpus.DocID(37*i + 5), Score: 12.75 - float64(i)*0.5})
	}
	reqBytes, body := EncodeSearchRequest(req), EncodeSearchResult(res)
	if back, err := DecodeSearchRequest(reqBytes); err != nil || !reflect.DeepEqual(back, req) {
		t.Fatalf("request does not round-trip: %+v, %v", back, err)
	}
	if back, err := DecodeSearchResult(body); err != nil || !reflect.DeepEqual(back, res) {
		t.Fatalf("result does not round-trip: %+v, %v", back, err)
	}
	for _, c := range []struct {
		name    string
		ceiling float64
		fn      func()
	}{
		{"request encode", 2, func() { codecSink = EncodeSearchRequest(req) }},
		{"request decode", 3, func() { codecSink, _ = DecodeSearchRequest(reqBytes) }},
		{"result encode", 2, func() { codecSink = EncodeSearchResult(res) }},
		{"result decode", 2, func() { codecSink, _ = DecodeSearchResult(body) }},
	} {
		if allocs := testing.AllocsPerRun(100, c.fn); allocs > c.ceiling {
			t.Errorf("%s: %.0f allocs per call, ceiling %.0f", c.name, allocs, c.ceiling)
		}
	}
}
