package core

import (
	"fmt"

	"repro/internal/rank"
)

// Config carries the HDK model parameters (Table 2 of the paper) plus the
// global ranking statistics.
type Config struct {
	// DFMax is the document-frequency threshold separating discriminative
	// from non-discriminative keys (paper: 400 and 500).
	DFMax int
	// SMax is the maximal key size (paper: 3).
	SMax int
	// Window is the proximity-filtering window size w (paper: 20).
	Window int
	// Ff is the very-frequent collection-frequency threshold: terms with
	// f_D(t) > Ff are excluded from the key vocabulary, the paper's
	// collection-adaptive stop list (paper: 100,000).
	Ff int
	// ReplicationFactor is the number of distinct overlay members each
	// key's index entry is stored on (R-way placement via
	// internal/replica). Values <= 1 keep a single copy; higher values
	// make builds ship R× the postings but let Search fail over to the
	// surviving replicas when an index node departs or is unreachable.
	// The effective factor is capped at the overlay size.
	ReplicationFactor int
	// BM25 parameterizes the partial scores postings carry.
	BM25 rank.BM25Params
	// Stats are the collection-wide statistics used for scoring
	// (distributed via gossip in the prototype lineage; precomputed here).
	Stats rank.CollectionStats
}

// DefaultConfig returns the paper's Table 2 parameterization for a
// collection with the given global stats.
func DefaultConfig(stats rank.CollectionStats) Config {
	return Config{
		DFMax:             400,
		SMax:              3,
		Window:            20,
		Ff:                100000,
		ReplicationFactor: 1,
		BM25:              rank.DefaultBM25(),
		Stats:             stats,
	}
}

// Validate reports whether the configuration is admissible.
func (c Config) Validate() error {
	if c.DFMax < 1 {
		return fmt.Errorf("core: DFMax must be >= 1, got %d", c.DFMax)
	}
	if c.SMax < 1 || c.SMax > MaxKeySize {
		return fmt.Errorf("core: SMax must be in [1,%d], got %d", MaxKeySize, c.SMax)
	}
	if c.Window < 2 {
		return fmt.Errorf("core: Window must be >= 2, got %d", c.Window)
	}
	if c.Ff < 1 {
		return fmt.Errorf("core: Ff must be >= 1, got %d", c.Ff)
	}
	if c.ReplicationFactor < 0 {
		return fmt.Errorf("core: ReplicationFactor must be >= 0, got %d", c.ReplicationFactor)
	}
	if c.Stats.NumDocs < 0 {
		return fmt.Errorf("core: negative NumDocs")
	}
	return nil
}
