// Package experiments reproduces the paper's evaluation (Section 5): one
// runner per table and figure, each emitting the same series the paper
// reports. A Scale bundles every knob so the identical experiment code
// runs at the paper's parameters (PaperScale) or at laptop-friendly
// reductions (SmallScale, MediumScale) that preserve the curves' shape:
// DFmax is scaled with the collection so the discriminative/non-
// discriminative boundary sits at the same relative position.
package experiments

import (
	"fmt"

	"repro/internal/corpus"
)

// Scale is a full experiment parameterization.
type Scale struct {
	Name        string
	PeerSteps   []int // network sizes per experimental run (paper: 4,8,..,28)
	DocsPerPeer int   // paper: 5,000
	AvgDocLen   int   // paper: ~225
	VocabSize   int
	Topics      int
	TopicTerms  int
	TopicMix    float64
	Skew        float64
	DFMaxes     []int // paper: 400, 500
	Window      int   // paper: 20
	SMax        int   // paper: 3
	Ff          int   // paper: 100,000
	NumQueries  int   // paper: 3,000
	MinHits     int   // paper: >20
	// SearchFanout bounds concurrent per-owner fetch RPCs per lattice
	// level during retrieval; 0 keeps the engine default.
	SearchFanout int
	// Replicas is the R-way key replication factor for the HDK engines
	// (internal/replica); 0 keeps the engine default (single copy).
	Replicas int
	Seed     int64
}

// MaxDocs returns the largest collection size the scale reaches.
func (s Scale) MaxDocs() int {
	max := 0
	for _, p := range s.PeerSteps {
		if d := p * s.DocsPerPeer; d > max {
			max = d
		}
	}
	return max
}

// Validate reports whether the scale is runnable.
func (s Scale) Validate() error {
	if len(s.PeerSteps) == 0 || s.DocsPerPeer < 1 {
		return fmt.Errorf("experiments: empty peer steps or no docs per peer")
	}
	for _, p := range s.PeerSteps {
		if p < 1 {
			return fmt.Errorf("experiments: non-positive peer count %d", p)
		}
	}
	if len(s.DFMaxes) == 0 {
		return fmt.Errorf("experiments: no DFmax values")
	}
	for _, df := range s.DFMaxes {
		if df < 1 {
			return fmt.Errorf("experiments: DFmax %d < 1", df)
		}
	}
	if s.Window < 2 || s.SMax < 1 {
		return fmt.Errorf("experiments: bad window/smax")
	}
	if s.SearchFanout < 0 {
		return fmt.Errorf("experiments: negative search fanout %d", s.SearchFanout)
	}
	if s.Replicas < 0 {
		return fmt.Errorf("experiments: negative replication factor %d", s.Replicas)
	}
	return nil
}

// GenParams translates the scale into corpus generator parameters.
func (s Scale) GenParams() corpus.GenParams {
	return corpus.GenParams{
		NumDocs:    s.MaxDocs(),
		VocabSize:  s.VocabSize,
		AvgDocLen:  s.AvgDocLen,
		Skew:       s.Skew,
		NumTopics:  s.Topics,
		TopicTerms: s.TopicTerms,
		TopicMix:   s.TopicMix,
		Seed:       s.Seed,
	}
}

// SmallScale finishes in seconds; used by unit tests and the default
// bench run. DFmax values keep the paper's 400:500 proportion at the
// reduced collection size (DFmax/M ≈ 0.3% at the largest step, as in the
// paper: 400/140,000).
func SmallScale() Scale {
	return Scale{
		Name:        "small",
		PeerSteps:   []int{4, 8, 12, 16, 20, 24, 28},
		DocsPerPeer: 150,
		AvgDocLen:   60,
		VocabSize:   6000,
		Topics:      24,
		TopicTerms:  220,
		TopicMix:    0.45,
		Skew:        1.05,
		DFMaxes:     []int{12, 15},
		Window:      8,
		SMax:        3,
		Ff:          12000,
		NumQueries:  60,
		MinHits:     3,
		Seed:        42,
	}
}

// MediumScale is the default for cmd/hdkbench: a few minutes end-to-end.
func MediumScale() Scale {
	return Scale{
		Name:        "medium",
		PeerSteps:   []int{4, 8, 12, 16, 20, 24, 28},
		DocsPerPeer: 500,
		AvgDocLen:   120,
		VocabSize:   30000,
		Topics:      60,
		TopicTerms:  800,
		TopicMix:    0.4,
		Skew:        1.05,
		DFMaxes:     []int{40, 50},
		Window:      12,
		SMax:        3,
		Ff:          60000,
		NumQueries:  200,
		MinHits:     8,
		Seed:        42,
	}
}

// PaperScale is the paper's Table 2 verbatim. A full sweep takes hours in
// a single process; it exists so the reproduction is runnable at the
// published operating point, not as the default.
func PaperScale() Scale {
	return Scale{
		Name:        "paper",
		PeerSteps:   []int{4, 8, 12, 16, 20, 24, 28},
		DocsPerPeer: 5000,
		AvgDocLen:   225,
		VocabSize:   300000,
		Topics:      280,
		TopicTerms:  4000,
		TopicMix:    0.4,
		Skew:        1.1,
		DFMaxes:     []int{400, 500},
		Window:      20,
		SMax:        3,
		Ff:          100000,
		NumQueries:  3000,
		MinHits:     20,
		Seed:        42,
	}
}
