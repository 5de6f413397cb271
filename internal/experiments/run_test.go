package experiments

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// tinyScale keeps the full pipeline under a second for unit tests.
func tinyScale() Scale {
	s := SmallScale()
	s.Name = "tiny"
	s.PeerSteps = []int{4, 8}
	s.DocsPerPeer = 60
	s.NumQueries = 15
	s.MinHits = 1
	s.DFMaxes = []int{6, 8}
	return s
}

var tinyOnce struct {
	sync.Once
	res *Results
	err error
}

// runTiny memoizes the sweep: it is deterministic and read-only for every
// assertion, so all tests share one run.
func runTiny(t *testing.T) *Results {
	t.Helper()
	tinyOnce.Do(func() {
		tinyOnce.res, tinyOnce.err = Run(tinyScale(), nil)
	})
	if tinyOnce.err != nil {
		t.Fatal(tinyOnce.err)
	}
	return tinyOnce.res
}

func TestScaleValidate(t *testing.T) {
	for _, s := range []Scale{SmallScale(), MediumScale(), PaperScale()} {
		if err := s.Validate(); err != nil {
			t.Errorf("preset %q invalid: %v", s.Name, err)
		}
	}
	bad := SmallScale()
	bad.DFMaxes = nil
	if err := bad.Validate(); err == nil {
		t.Error("empty DFMaxes accepted")
	}
	bad = SmallScale()
	bad.PeerSteps = []int{0}
	if err := bad.Validate(); err == nil {
		t.Error("zero peers accepted")
	}
}

// tinyCounters are the tiny sweep's figures by (peers, DFmax): the
// per-query counters — batched fetch RPCs, lattice probes and fetched
// postings per query — then HDK stored and inserted postings per peer,
// the top-20 overlap with the centralized reference, and the step's
// single-term baseline (stored postings per peer, postings per query,
// top-20 overlap). They are a pure function of the scale's seeds, so
// they are pinned exactly: any drift is a change in what the paper's
// figures report.
var tinyCounters = []struct {
	peers, dfmax                                int
	rpcs, probes, postings                      float64
	stored, inserted, overlap                   float64
	stStoredPerPeer, stQueryPostings, stOverlap float64
}{
	{4, 6, 2.466666666666667, 3, 15.266666666666667, 5138.25, 6762.25, 54.333333333333336, 3056.75, 221.53333333333333, 100},
	{4, 8, 2.1333333333333333, 2.6666666666666665, 18.6, 4358.25, 5723, 65.33333333333333, 3056.75, 221.53333333333333, 100},
	{8, 6, 2.933333333333333, 3.3333333333333335, 18.133333333333333, 8686.625, 11029.375, 54.666666666666664, 3056.25, 444.3333333333333, 100},
	{8, 8, 2.933333333333333, 3.3333333333333335, 22.8, 6466.625, 8386.875, 65, 3056.25, 444.3333333333333, 100},
}

func TestRunProducesAllSteps(t *testing.T) {
	r := runTiny(t)
	if len(r.Steps) != 2 {
		t.Fatalf("got %d steps, want 2", len(r.Steps))
	}
	var got []string
	for _, s := range r.Steps {
		for _, h := range s.HDK {
			got = append(got, fmt.Sprint(s.Peers, h.DFMax, h.QueryRPCsAvg, h.QueryProbesAvg, h.QueryPostingsAvg,
				h.StoredPerPeer, h.InsertedPerPeer, h.OverlapAvgPercent, s.STStoredPerPeer, s.STQueryPostings, s.STOverlapPercent))
		}
	}
	var want []string
	for _, c := range tinyCounters {
		want = append(want, fmt.Sprint(c.peers, c.dfmax, c.rpcs, c.probes, c.postings,
			c.stored, c.inserted, c.overlap, c.stStoredPerPeer, c.stQueryPostings, c.stOverlap))
	}
	if !slices.Equal(got, want) {
		t.Errorf("figures (peers dfmax rpcs probes postings stored inserted overlap stStored stPostings stOverlap) drifted:\ngot  %q\nwant %q", got, want)
	}
	for i, s := range r.Steps {
		if s.Docs != s.Peers*60 {
			t.Errorf("step %d: docs %d != peers*60", i, s.Docs)
		}
		if len(s.HDK) != 2 {
			t.Errorf("step %d: %d HDK measurements, want 2", i, len(s.HDK))
		}
		if s.QueriesMeasured == 0 {
			t.Errorf("step %d: no queries measured", i)
		}
		if s.STStoredPerPeer <= 0 || s.STQueryPostings <= 0 {
			t.Errorf("step %d: empty ST measurements", i)
		}
		for _, h := range s.HDK {
			if h.QueryRPCsAvg <= 0 || h.QueryProbesAvg <= 0 {
				t.Errorf("step %d DFmax=%d: RPC metrics not measured", i, h.DFMax)
			}
			if h.QueryRPCsAvg > h.QueryProbesAvg {
				t.Errorf("step %d DFmax=%d: %.1f RPCs/query > %.1f probes/query — batching regressed",
					i, h.DFMax, h.QueryRPCsAvg, h.QueryProbesAvg)
			}
		}
	}
}

func TestPaperShapeFig3HDKStoresMore(t *testing.T) {
	// Figure 3's headline: HDK stores significantly more postings per
	// peer than single-term indexing.
	r := runTiny(t)
	last := r.Steps[len(r.Steps)-1]
	for _, h := range last.HDK {
		if h.StoredPerPeer <= last.STStoredPerPeer {
			t.Errorf("DFmax=%d: HDK stored/peer %.0f <= ST %.0f", h.DFMax, h.StoredPerPeer, last.STStoredPerPeer)
		}
	}
}

func TestPaperShapeFig3DFmaxOrdering(t *testing.T) {
	// "The HDK index size can be reduced when increasing DFmax": the
	// larger DFmax index must not exceed the smaller one... it is the
	// smaller DFmax that generates more keys. (Figure 3: DFmax=500 curve
	// below DFmax=400.)
	r := runTiny(t)
	for _, s := range r.Steps {
		lo, hi := s.HDK[0], s.HDK[1] // DFMaxes sorted ascending in the scale
		if lo.DFMax > hi.DFMax {
			lo, hi = hi, lo
		}
		if hi.StoredPerPeer > lo.StoredPerPeer {
			t.Errorf("%d docs: stored(DFmax=%d)=%.0f > stored(DFmax=%d)=%.0f",
				s.Docs, hi.DFMax, hi.StoredPerPeer, lo.DFMax, lo.StoredPerPeer)
		}
	}
}

func TestPaperShapeFig4InsertedAtLeastStored(t *testing.T) {
	r := runTiny(t)
	for _, s := range r.Steps {
		for _, h := range s.HDK {
			if h.InsertedPerPeer < h.StoredPerPeer {
				t.Errorf("%d docs DFmax=%d: inserted %.0f < stored %.0f",
					s.Docs, h.DFMax, h.InsertedPerPeer, h.StoredPerPeer)
			}
		}
	}
}

func TestPaperShapeFig6STGrowsHDKBounded(t *testing.T) {
	r := runTiny(t)
	first, last := r.Steps[0], r.Steps[len(r.Steps)-1]
	if last.STQueryPostings <= first.STQueryPostings {
		t.Errorf("ST query traffic did not grow: %.0f -> %.0f",
			first.STQueryPostings, last.STQueryPostings)
	}
	stGrowth := last.STQueryPostings / first.STQueryPostings
	for i := range last.HDK {
		hdkGrowth := last.HDK[i].QueryPostingsAvg / r.Steps[0].HDK[i].QueryPostingsAvg
		if hdkGrowth >= stGrowth {
			t.Errorf("DFmax=%d: HDK traffic growth %.2fx >= ST growth %.2fx",
				last.HDK[i].DFMax, hdkGrowth, stGrowth)
		}
	}
}

func TestPaperShapeFig7OverlapReasonable(t *testing.T) {
	r := runTiny(t)
	for _, s := range r.Steps {
		if s.STOverlapPercent < 95 {
			t.Errorf("%d docs: distributed ST overlap %.0f%% < 95%%", s.Docs, s.STOverlapPercent)
		}
		for _, h := range s.HDK {
			if h.OverlapAvgPercent < 30 {
				t.Errorf("%d docs DFmax=%d: HDK overlap %.0f%% implausibly low",
					s.Docs, h.DFMax, h.OverlapAvgPercent)
			}
		}
	}
}

func TestTablesRender(t *testing.T) {
	r := runTiny(t)
	for _, tab := range AllTables(r) {
		var buf bytes.Buffer
		tab.Fprint(&buf)
		out := buf.String()
		if !strings.Contains(out, tab.ID) {
			t.Errorf("table %s: missing id in output", tab.ID)
		}
		if len(tab.Rows) == 0 {
			t.Errorf("table %s: no rows", tab.ID)
		}
		for _, row := range tab.Rows {
			if len(row) != len(tab.Columns) {
				t.Errorf("table %s: row width %d != %d columns", tab.ID, len(row), len(tab.Columns))
			}
		}
	}
}

func TestFig5RatiosShape(t *testing.T) {
	r := runTiny(t)
	tab := Fig5(r)
	// IS1/D <= 1 in every row (Theorem 3 / Section 4.1).
	for _, row := range tab.Rows {
		is1, err := strconv.ParseFloat(row[1], 64)
		if err != nil {
			t.Fatalf("bad IS1/D cell %q", row[1])
		}
		if is1 > 1.0+1e-9 {
			t.Errorf("IS1/D = %g > 1", is1)
		}
	}
}

func TestWriteSummary(t *testing.T) {
	r := runTiny(t)
	var buf bytes.Buffer
	r.WriteSummary(&buf)
	if !strings.Contains(buf.String(), "DFmax=") {
		t.Errorf("summary missing DFmax lines: %q", buf.String())
	}
}

func TestRunRejectsInvalidScale(t *testing.T) {
	bad := tinyScale()
	bad.Window = 1
	if _, err := Run(bad, nil); err == nil {
		t.Fatal("invalid scale accepted")
	}
}
