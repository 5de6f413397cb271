package core

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"time"

	"repro/internal/corpus"
	"repro/internal/postings"
	"repro/internal/rank"
	"repro/internal/wire"
)

// Wire codec for the hdk.search coordination RPC: a thin client ships a
// query's pre-rendered terms plus the answer size and options in ONE
// request to any daemon, which runs the whole lattice traversal
// server-side and returns the ranked answer with its cost metrics. The
// response body is framed separately from the served-from-cache flag so
// a coordinator can cache the body once and stamp the flag per response.

// SvcSearch is the coordination service name: the daemon-side
// counterpart of Engine.Search, served by cluster.Server.
const SvcSearch = "hdk.search"

// SearchRequest is one coordinated query.
type SearchRequest struct {
	// Terms is the query in coordinator wire form — Engine.QueryTerms
	// output: distinct, non-very-frequent canonical term strings in
	// ascending TermID order. The order decides candidate enumeration
	// and therefore score accumulation, so preserving it is what makes
	// coordinated answers bit-identical to client-engine ones.
	Terms []string
	// K is the number of ranked results requested.
	K int
	// NoCache bypasses the coordinator's query-result cache (both
	// lookup and fill) — for load tests that must exercise the fetch
	// path, and for verifying failover behind a warm cache.
	NoCache bool
	// Trace asks the coordinator to record a per-query span tree
	// (admission wait, per-level fetch waves, per-owner RPC timing) and
	// return it alongside the answer. Cache hits skip coordination, so
	// a traced request answered from cache carries no trace.
	Trace bool
}

// Request option bits.
const (
	searchReqFlagNoCache = 1 << 0
	searchReqFlagTrace   = 1 << 1

	searchReqFlagsKnown = searchReqFlagNoCache | searchReqFlagTrace
)

// maxSearchK bounds the requested answer size a coordinator accepts —
// far above any real top-k, low enough that a corrupt varint cannot ask
// for an absurd ranking.
const maxSearchK = 1 << 20

// maxSearchTerms bounds the terms of one query, in the decoder and in
// the traversal: the lattice over n terms has up to 2^n - 1 candidates,
// so an unbounded term list could hold a search worker for seconds. It
// is also the width of the term-subset masks the traversal prunes on.
// Corpus queries have at most 8 terms.
const maxSearchTerms = 64

// EncodeSearchRequest builds the hdk.search request payload. The
// encoding is canonical (no redundant representations), so the raw
// request bytes double as the coordinator's cache key.
func EncodeSearchRequest(req SearchRequest) []byte {
	var flags uint64
	if req.NoCache {
		flags |= searchReqFlagNoCache
	}
	if req.Trace {
		flags |= searchReqFlagTrace
	}
	size := postings.UvarintSize(uint64(req.K)) + postings.UvarintSize(flags) +
		postings.KeyListSize(req.Terms)
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(req.K))
	buf = binary.AppendUvarint(buf, flags)
	return postings.EncodeKeyList(buf, req.Terms)
}

// DecodeSearchRequest parses an hdk.search request payload, accepting
// only the canonical encoding EncodeSearchRequest produces.
func DecodeSearchRequest(payload []byte) (SearchRequest, error) {
	r := wire.NewReader(payload)
	k, flags := r.Uvarint(), r.Uvarint()
	if r.Err() != nil || k > maxSearchK || flags&^uint64(searchReqFlagsKnown) != 0 {
		return SearchRequest{}, errCorruptRPC
	}
	terms, err := postings.DecodeKeyList(r.Rest())
	if err != nil {
		return SearchRequest{}, err
	}
	if len(terms) > maxSearchTerms {
		return SearchRequest{}, errCorruptRPC
	}
	return SearchRequest{
		Terms:   terms,
		K:       int(k),
		NoCache: flags&searchReqFlagNoCache != 0,
		Trace:   flags&searchReqFlagTrace != 0,
	}, nil
}

// EncodeSearchResult serializes a coordinated answer body: the ranked
// results (doc id + exact float64 score bits, so the client sees the
// byte-identical ranking the coordinator computed) followed by the
// per-query cost metrics.
func EncodeSearchResult(res *SearchResult) []byte {
	size := postings.UvarintSize(uint64(len(res.Results)))
	for _, r := range res.Results {
		size += postings.UvarintSize(uint64(r.Doc)) + 8
	}
	size += postings.UvarintSize(res.FetchedPosts) +
		postings.UvarintSize(uint64(res.ProbedKeys)) +
		postings.UvarintSize(uint64(res.FoundKeys)) +
		postings.UvarintSize(uint64(res.RPCs)) +
		postings.UvarintSize(uint64(res.Rounds)) +
		postings.UvarintSize(uint64(res.Failovers))
	buf := binary.AppendUvarint(make([]byte, 0, size), uint64(len(res.Results)))
	for _, r := range res.Results {
		buf = binary.AppendUvarint(buf, uint64(r.Doc))
		buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(r.Score))
	}
	buf = binary.AppendUvarint(buf, res.FetchedPosts)
	buf = binary.AppendUvarint(buf, uint64(res.ProbedKeys))
	buf = binary.AppendUvarint(buf, uint64(res.FoundKeys))
	buf = binary.AppendUvarint(buf, uint64(res.RPCs))
	buf = binary.AppendUvarint(buf, uint64(res.Rounds))
	return binary.AppendUvarint(buf, uint64(res.Failovers))
}

// DecodeSearchResult parses a coordinated answer body.
func DecodeSearchResult(body []byte) (*SearchResult, error) {
	r := wire.NewReader(body)
	n := r.Count(9) // a result is at least a 1-byte doc varint and 8 score bytes
	res := &SearchResult{Results: make([]rank.Result, 0, n)}
	for i := 0; i < n; i++ {
		doc := r.Uvarint()
		score := math.Float64frombits(r.Uint64LE())
		if doc > math.MaxUint32 {
			r.Fail()
		}
		res.Results = append(res.Results, rank.Result{Doc: corpus.DocID(doc), Score: score})
	}
	res.FetchedPosts = r.Uvarint()
	res.ProbedKeys = int(r.Uvarint())
	res.FoundKeys = int(r.Uvarint())
	res.RPCs = int(r.Uvarint())
	res.Rounds = int(r.Uvarint())
	res.Failovers = int(r.Uvarint())
	if !r.Done() {
		return nil, errCorruptRPC
	}
	return res, nil
}

// Response frame flags: byte 0 of every hdk.search response. 0 is a
// freshly coordinated answer, 1 a cache hit, 2 an overload rejection
// (admission control shed the request; the body is a retry-after hint),
// 3 a freshly coordinated answer followed by its trace (a uvarint body
// length, the body, then the telemetry trace bytes).
const (
	searchRespFresh      = 0
	searchRespCached     = 1
	searchRespOverloaded = 2
	searchRespTraced     = 3
)

// maxRetryAfterMS bounds the wire-carried retry-after hint — far above
// any real backoff, low enough that a corrupt varint cannot park a
// well-behaved client for hours.
const maxRetryAfterMS = 60_000

// ErrOverloaded is the sentinel matched by errors.Is when a coordinator
// sheds a search under admission control. The concrete error in the
// chain is *OverloadError, which carries the daemon's retry-after hint.
var ErrOverloaded = errors.New("core: coordinator overloaded")

// OverloadError is a typed search rejection: the coordinator's worker
// pool and admission queue were both full, and the daemon shed the
// request instead of queueing it unboundedly. RetryAfter is the
// daemon's backoff hint (always positive on a decoded rejection).
type OverloadError struct {
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("core: coordinator overloaded (retry after %v)", e.RetryAfter)
}

// Is makes errors.Is(err, ErrOverloaded) match any overload rejection.
func (e *OverloadError) Is(target error) bool { return target == ErrOverloaded }

// EncodeSearchOverloaded frames an overload rejection carrying the
// retry-after hint, floored at 1ms so a decoded rejection always has a
// positive hint. Shedding is a transport-level SUCCESS (the daemon
// answered; the answer is "not now"): a handler error would be
// indistinguishable from a broken daemon and retried as transient by
// the RPC layer instead of backed off by the search client.
func EncodeSearchOverloaded(retryAfter time.Duration) []byte {
	ms := uint64(retryAfter / time.Millisecond)
	if ms < 1 {
		ms = 1
	}
	if ms > maxRetryAfterMS {
		ms = maxRetryAfterMS
	}
	return binary.AppendUvarint([]byte{searchRespOverloaded}, ms)
}

// EncodeSearchResponse frames a response: a served-from-cache flag byte
// ahead of the result body.
func EncodeSearchResponse(body []byte, cached bool) []byte {
	flag := byte(searchRespFresh)
	if cached {
		flag = searchRespCached
	}
	out := make([]byte, 0, 1+len(body))
	return append(append(out, flag), body...)
}

// EncodeSearchResponseTraced frames a freshly coordinated answer with
// its trace appended: the body is length-prefixed so the trace bytes
// (telemetry.EncodeTrace output) ride behind it in the same response.
func EncodeSearchResponseTraced(body, trace []byte) []byte {
	out := make([]byte, 0, 1+binary.MaxVarintLen64+len(body)+len(trace))
	out = append(out, searchRespTraced)
	out = binary.AppendUvarint(out, uint64(len(body)))
	out = append(out, body...)
	return append(out, trace...)
}

// DecodeSearchResponseTrace parses a framed hdk.search response into
// the answer, whether the coordinator served it from its result cache,
// and the raw trace bytes a traced frame carries (nil on untraced
// frames; decode with telemetry.DecodeTrace). A cached response carries
// the metrics recorded when the answer was first computed — the cost of
// the original coordination, not of the (free) cache hit. An overload
// frame decodes into a *OverloadError (errors.Is-matchable against
// ErrOverloaded) carrying the daemon's retry-after hint.
func DecodeSearchResponseTrace(resp []byte) (*SearchResult, bool, []byte, error) {
	r := wire.NewReader(resp)
	var body, trace []byte
	switch flag := r.Byte(); {
	case r.Err() != nil || flag > searchRespTraced:
		return nil, false, nil, errCorruptRPC
	case flag == searchRespOverloaded:
		ms := r.Uvarint()
		if !r.Done() || ms < 1 || ms > maxRetryAfterMS {
			return nil, false, nil, errCorruptRPC
		}
		return nil, false, nil, &OverloadError{RetryAfter: time.Duration(ms) * time.Millisecond}
	case flag == searchRespTraced:
		body = r.Bytes(r.Uvarint())
		if trace = r.Rest(); len(trace) == 0 {
			return nil, false, nil, errCorruptRPC
		}
	default:
		body = r.Rest()
	}
	res, err := DecodeSearchResult(body)
	if err != nil {
		return nil, false, nil, err
	}
	return res, resp[0] == searchRespCached, trace, nil
}
